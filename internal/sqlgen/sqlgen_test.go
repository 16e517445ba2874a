package sqlgen

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/engine"
	"squid/internal/relation"
)

// paperDB builds the Fig 2/Fig 5 schema: person, movie, genre, castinfo,
// movietogenre — with a planted comedian so the Q4/Q5 pair of the paper
// can be rendered and executed.
func paperDB(t *testing.T) (*relation.Database, *adb.AlphaDB) {
	t.Helper()
	db := relation.NewDatabase("imdb_mini")

	genre := relation.New("genre",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
	).SetPrimaryKey("id")
	for i, g := range []string{"Comedy", "Drama", "Action"} {
		genre.MustAppend(relation.IntVal(int64(i)), relation.StringVal(g))
	}
	db.AddRelation(genre)
	db.MarkProperty("genre")

	person := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("gender", relation.String),
		relation.Col("age", relation.Int),
	).SetPrimaryKey("id")
	names := []string{
		"Eddie Murphy", "Jim Carrey", "Robin Williams", "Clint Eastwood",
		"Meryl Streep", "Tom Hanks", "Julia Roberts", "Emma Stone",
		"Al Pacino", "Jodie Foster",
	}
	for i, n := range names {
		gender := "Male"
		if i > 2 && i%2 == 0 {
			gender = "Female"
		}
		person.MustAppend(relation.IntVal(int64(i)), relation.StringVal(n),
			relation.StringVal(gender), relation.IntVal(int64(40+i*5)))
	}
	db.AddRelation(person)
	db.MarkEntity("person")

	movie := relation.New("movie",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
	).SetPrimaryKey("id")
	mg := relation.New("movietogenre",
		relation.Col("movie_id", relation.Int),
		relation.Col("genre_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("genre_id", "genre", "id")
	// 12 movies: ids 0-7 comedies, 8-11 dramas.
	for i := 0; i < 12; i++ {
		movie.MustAppend(relation.IntVal(int64(i)), relation.StringVal("M"+string(rune('A'+i))))
		g := int64(0)
		if i >= 8 {
			g = 1
		}
		mg.MustAppend(relation.IntVal(int64(i)), relation.IntVal(g))
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")
	db.AddRelation(mg)

	ci := relation.New("castinfo",
		relation.Col("person_id", relation.Int),
		relation.Col("movie_id", relation.Int),
	).AddForeignKey("person_id", "person", "id").AddForeignKey("movie_id", "movie", "id")
	// Persons 0-2 are comedians: 6 comedies each; persons 3-9: 2 dramas.
	for p := 0; p < 3; p++ {
		for m := 0; m < 6; m++ {
			ci.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64((p+m)%8)))
		}
	}
	for p := 3; p < 10; p++ {
		for m := 8; m < 10; m++ {
			ci.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64(m)))
		}
	}
	db.AddRelation(ci)

	alpha, err := adb.Build(db, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db, alpha
}

// abduceComedians runs discovery with a τa low enough to keep the planted
// 6-comedy signal.
func abduceComedians(t *testing.T, alpha *adb.AlphaDB) *abduction.Result {
	t.Helper()
	params := abduction.DefaultParams()
	params.TauA = 4
	results, err := abduction.DiscoverCtx(context.Background(), alpha.Snapshot(), []string{"Eddie Murphy", "Jim Carrey", "Robin Williams"}, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestAlphaSQLShape(t *testing.T) {
	_, alpha := paperDB(t)
	res := abduceComedians(t, alpha)
	sql := AlphaSQL(res)
	if !strings.Contains(sql, "SELECT person.name") {
		t.Errorf("projection missing:\n%s", sql)
	}
	if !strings.Contains(sql, "persontomovie_genre") {
		t.Errorf("derived relation missing (Q5 shape):\n%s", sql)
	}
	if !strings.Contains(sql, "value = 'Comedy'") || !strings.Contains(sql, "count >=") {
		t.Errorf("derived predicates missing:\n%s", sql)
	}
}

func TestOriginalSQLShape(t *testing.T) {
	_, alpha := paperDB(t)
	res := abduceComedians(t, alpha)
	sql := OriginalSQL(res)
	// Q4 shape: joins through castinfo and movietogenre with GROUP BY /
	// HAVING.
	for _, want := range []string{"castinfo", "movietogenre", "genre.name = 'Comedy'", "GROUP BY person.id", "HAVING count(*) >="} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q in original SQL:\n%s", want, sql)
		}
	}
}

// TestEngineQueryMatchesIntersectRows is the key equivalence check: the
// engine plan produced by ToEngineQuery over the combined αDB database
// returns exactly the entities IntersectRows computes from the αDB row
// sets (Q4 ≡ Q5 of the paper, §2.3).
func TestEngineQueryMatchesIntersectRows(t *testing.T) {
	_, alpha := paperDB(t)
	res := abduceComedians(t, alpha)

	q := ToEngineQuery(res)
	exec := engine.NewExecutor(alpha.CombinedDB())
	got, err := exec.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("engine execution failed: %v\nquery: %+v", err, q)
	}
	gotNames := got.Strings()

	wantNames := res.OutputValues()
	sort.Strings(wantNames)
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Errorf("engine output %v != αDB row-set output %v", gotNames, wantNames)
	}
	if len(gotNames) == 0 {
		t.Error("empty result; fixture should select the comedians")
	}
}

// TestSQLQuotesValues: a value holding a quote renders as a SQL string
// literal with the quote doubled, in both SQL forms and in both shapes
// of a categorical predicate.
func TestSQLQuotesValues(t *testing.T) {
	_, alpha := paperDB(t)
	info := alpha.Entity("person")
	gender, ptg := info.BasicByAttr("gender"), info.DerivedByAttr("movie:genre")
	cases := []struct {
		name            string
		filter          *abduction.Filter
		alpha, original string
	}{
		{"equality", &abduction.Filter{Kind: abduction.BasicCategorical, Basic: gender, Values: []string{"O'Neil"}},
			"person.gender = 'O''Neil'", "person.gender = 'O''Neil'"},
		{"disjunction", &abduction.Filter{Kind: abduction.BasicCategorical, Basic: gender, Values: []string{"O'Neil", "Male"}},
			"person.gender IN ('O''Neil', 'Male')", "person.gender IN ('O''Neil', 'Male')"},
		{"derived", &abduction.Filter{Kind: abduction.Derived, Derivd: ptg, Values: []string{"Rock 'n' Roll"}, Theta: 1},
			".value = 'Rock ''n'' Roll'", "genre.name = 'Rock ''n'' Roll'"},
	}
	for _, c := range cases {
		res := discoverPerson(t, alpha, "Eddie Murphy", "Jim Carrey")
		res.Filters = []*abduction.Filter{c.filter}
		if sql := AlphaSQL(res); !strings.Contains(sql, c.alpha) {
			t.Errorf("%s: αDB SQL lacks %s:\n%s", c.name, c.alpha, sql)
		}
		if sql := OriginalSQL(res); !strings.Contains(sql, c.original) {
			t.Errorf("%s: original SQL lacks %s:\n%s", c.name, c.original, sql)
		}
	}
}

func TestPredicateCount(t *testing.T) {
	_, alpha := paperDB(t)
	res := abduceComedians(t, alpha)
	joins, sels := PredicateCount(res)
	if joins+sels == 0 {
		t.Fatal("no predicates counted")
	}
	// Each derived filter contributes one derived-relation join and two
	// selections; basic numerics two selections each.
	if sels < 2 {
		t.Errorf("selections=%d", sels)
	}
}

// discoverPerson abduces the person.name query for the named examples
// (unique in the fixture, so no resolver is needed); the tests below
// swap in hand-built filters and only need a Result grounded in the αDB.
func discoverPerson(t *testing.T, alpha *adb.AlphaDB, examples ...string) *abduction.Result {
	t.Helper()
	results, err := abduction.DiscoverCtx(context.Background(), alpha.Snapshot(), examples, abduction.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestAlphaSQLNumericRange(t *testing.T) {
	_, alpha := paperDB(t)
	info := alpha.Entity("person")
	age := info.BasicByAttr("age")
	if age == nil {
		t.Fatal("age property missing")
	}
	res := discoverPerson(t, alpha, "Eddie Murphy", "Jim Carrey", "Robin Williams")
	res.Filters = []*abduction.Filter{{Kind: abduction.BasicNumeric, Basic: age, Lo: 40, Hi: 50}}
	sql := AlphaSQL(res)
	if !strings.Contains(sql, "person.age >= 40") || !strings.Contains(sql, "person.age <= 50") {
		t.Errorf("numeric range missing:\n%s", sql)
	}
}

// TestSameDerivedRelationTwiceUsesAlias checks that two filters on the
// same derived relation render with an alias (Case A of Fig 8: Comedy
// and SciFi counts both from persontogenre).
func TestSameDerivedRelationTwiceUsesAlias(t *testing.T) {
	_, alpha := paperDB(t)
	info := alpha.Entity("person")
	ptg := info.DerivedByAttr("movie:genre")
	if ptg == nil {
		t.Fatal("derived property missing")
	}
	res := discoverPerson(t, alpha, "Eddie Murphy", "Jim Carrey")
	res.Filters = []*abduction.Filter{
		{Kind: abduction.Derived, Derivd: ptg, Values: []string{"Comedy"}, Theta: 3},
		{Kind: abduction.Derived, Derivd: ptg, Values: []string{"Drama"}, Theta: 2},
	}
	sql := AlphaSQL(res)
	if !strings.Contains(sql, " AS ") {
		t.Errorf("second instance of derived relation must be aliased:\n%s", sql)
	}
	// The engine plan must fall back to INTERSECT for the second one.
	q := ToEngineQuery(res)
	if len(q.Intersect) != 1 {
		t.Errorf("expected 1 intersect branch, got %d", len(q.Intersect))
	}
	// And execution must equal the αDB row-set evaluation.
	got, err := engine.NewExecutor(alpha.CombinedDB()).ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := abduction.IntersectRows(info, res.Filters)
	if got.NumRows() != len(want) {
		t.Errorf("engine=%d rows, row sets=%d", got.NumRows(), len(want))
	}
}

func TestOriginalSQLIntersectForMultipleDerived(t *testing.T) {
	_, alpha := paperDB(t)
	info := alpha.Entity("person")
	ptg := info.DerivedByAttr("movie:genre")
	res := discoverPerson(t, alpha, "Eddie Murphy", "Jim Carrey")
	res.Filters = []*abduction.Filter{
		{Kind: abduction.Derived, Derivd: ptg, Values: []string{"Comedy"}, Theta: 3},
		{Kind: abduction.Derived, Derivd: ptg, Values: []string{"Drama"}, Theta: 2},
	}
	sql := OriginalSQL(res)
	if !strings.Contains(sql, "INTERSECT") {
		t.Errorf("two derived filters must intersect:\n%s", sql)
	}
	if strings.Count(sql, "HAVING") != 2 {
		t.Errorf("each derived block needs HAVING:\n%s", sql)
	}
}

func TestNoFilterSQL(t *testing.T) {
	_, alpha := paperDB(t)
	res := discoverPerson(t, alpha, "Eddie Murphy")
	res.Filters = nil
	sql := AlphaSQL(res)
	if strings.Contains(sql, "WHERE") {
		t.Errorf("no filters must render without WHERE:\n%s", sql)
	}
	if !strings.Contains(OriginalSQL(res), "SELECT person.name") {
		t.Error("original SQL projection missing")
	}
}
