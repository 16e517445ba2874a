package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"squid/internal/relation"
)

// academicsDB builds the CS-Academics excerpt of Fig 1 of the paper.
func academicsDB() *relation.Database {
	db := relation.NewDatabase("cs_academics")
	a := relation.New("academics",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
	).SetPrimaryKey("id")
	names := []string{"Thomas Cormen", "Dan Suciu", "Jiawei Han", "Sam Madden", "James Kurose", "Joseph Hellerstein"}
	for i, n := range names {
		a.MustAppend(relation.IntVal(int64(100+i)), relation.StringVal(n))
	}
	db.AddRelation(a)

	r := relation.New("research",
		relation.Col("aid", relation.Int),
		relation.Col("interest", relation.String),
	).AddForeignKey("aid", "academics", "id")
	rows := []struct {
		aid      int64
		interest string
	}{
		{100, "algorithms"},
		{101, "data management"},
		{102, "data mining"},
		{103, "data management"},
		{103, "distributed systems"},
		{104, "computer networks"},
		{105, "data management"},
		{105, "distributed systems"},
	}
	for _, row := range rows {
		r.MustAppend(relation.IntVal(row.aid), relation.StringVal(row.interest))
	}
	db.AddRelation(r)
	return db
}

// movieDB builds a small IMDb-style star schema for aggregation tests
// (Fig 5 of the paper: Jim Carrey has 3 comedies, Ewan McGregor 2,
// Lauren Holly 1).
func movieDB() *relation.Database {
	db := relation.NewDatabase("mini_imdb")
	p := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
	).SetPrimaryKey("id")
	for i, n := range []string{"Jim Carrey", "Ewan McGregor", "Lauren Holly"} {
		p.MustAppend(relation.IntVal(int64(1+i)), relation.StringVal(n))
	}
	db.AddRelation(p)

	m := relation.New("movie",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
	).SetPrimaryKey("id")
	for i, t := range []string{"Bruce Almighty", "Dumb and Dumber", "I Love You Phillip Morris", "Trainspotting", "Big Fish"} {
		m.MustAppend(relation.IntVal(int64(10+i)), relation.StringVal(t))
	}
	db.AddRelation(m)

	g := relation.New("genre",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
	).SetPrimaryKey("id")
	for i, n := range []string{"Comedy", "Fantasy", "Drama"} {
		g.MustAppend(relation.IntVal(int64(100+i)), relation.StringVal(n))
	}
	db.AddRelation(g)

	ci := relation.New("castinfo",
		relation.Col("person_id", relation.Int),
		relation.Col("movie_id", relation.Int),
	).AddForeignKey("person_id", "person", "id").AddForeignKey("movie_id", "movie", "id")
	// Jim Carrey: 10,11,12 (three comedies); Ewan: 11,13; Lauren: 10.
	casts := [][2]int64{{1, 10}, {1, 11}, {1, 12}, {2, 11}, {2, 13}, {3, 10}}
	for _, c := range casts {
		ci.MustAppend(relation.IntVal(c[0]), relation.IntVal(c[1]))
	}
	db.AddRelation(ci)

	mg := relation.New("movietogenre",
		relation.Col("movie_id", relation.Int),
		relation.Col("genre_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("genre_id", "genre", "id")
	// All of 10,11,12,13 are comedies; 14 is drama; 10 also fantasy.
	mgs := [][2]int64{{10, 100}, {11, 100}, {12, 100}, {13, 100}, {14, 102}, {10, 101}}
	for _, x := range mgs {
		mg.MustAppend(relation.IntVal(x[0]), relation.IntVal(x[1]))
	}
	db.AddRelation(mg)
	return db
}

func TestProjectOnly(t *testing.T) {
	ex := NewExecutor(academicsDB())
	q := &Query{
		From:   []string{"academics"},
		Select: []ColRef{{"academics", "name"}},
	}
	res, err := ex.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 6 {
		t.Errorf("rows=%d want 6", res.NumRows())
	}
}

// TestPaperQ2 reproduces Q2 of the paper: data-management researchers.
func TestPaperQ2(t *testing.T) {
	ex := NewExecutor(academicsDB())
	q := &Query{
		From:  []string{"academics", "research"},
		Joins: []Join{{"research", "aid", "academics", "id"}},
		Preds: []Pred{{Rel: "research", Col: "interest", Op: OpEq, Val: relation.StringVal("data management")}},
		Select: []ColRef{
			{"academics", "name"},
		},
	}
	res, err := ex.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	want := []string{"Dan Suciu", "Joseph Hellerstein", "Sam Madden"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestPredicateOps(t *testing.T) {
	db := relation.NewDatabase("t")
	r := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("age", relation.Int),
	)
	for i, age := range []int64{50, 90, 60, 50, 29, 60} {
		r.MustAppend(relation.IntVal(int64(i+1)), relation.IntVal(age))
	}
	db.AddRelation(r)
	ex := NewExecutor(db)

	count := func(preds ...Pred) int {
		q := &Query{From: []string{"person"}, Preds: preds, Select: []ColRef{{"person", "id"}}}
		res, err := ex.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return res.NumRows()
	}
	if got := count(Pred{Rel: "person", Col: "age", Op: OpEq, Val: relation.IntVal(60)}); got != 2 {
		t.Errorf("eq: %d", got)
	}
	if got := count(Pred{Rel: "person", Col: "age", Op: OpGE, Val: relation.IntVal(60)}); got != 3 {
		t.Errorf("ge: %d", got)
	}
	if got := count(Pred{Rel: "person", Col: "age", Op: OpLE, Val: relation.IntVal(50)}); got != 3 {
		t.Errorf("le: %d", got)
	}
	if got := count(
		Pred{Rel: "person", Col: "age", Op: OpGE, Val: relation.IntVal(50)},
		Pred{Rel: "person", Col: "age", Op: OpLE, Val: relation.IntVal(90)},
	); got != 5 {
		t.Errorf("range: %d", got)
	}
	if got := count(Pred{Rel: "person", Col: "age", Op: OpIn, Vals: []relation.Value{relation.IntVal(29), relation.IntVal(90)}}); got != 2 {
		t.Errorf("in: %d", got)
	}
}

func TestNullsNeverMatch(t *testing.T) {
	db := relation.NewDatabase("t")
	r := relation.New("x", relation.Col("v", relation.Int))
	r.MustAppend(relation.IntVal(1))
	r.MustAppend(relation.Null)
	db.AddRelation(r)
	ex := NewExecutor(db)
	for _, op := range []Op{OpEq, OpGE, OpLE} {
		q := &Query{
			From:   []string{"x"},
			Preds:  []Pred{{Rel: "x", Col: "v", Op: op, Val: relation.IntVal(1)}},
			Select: []ColRef{{"x", "v"}},
		}
		res, err := ex.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.NumRows(); n != 1 {
			t.Errorf("op %v matched NULL: n=%d", op, n)
		}
	}
}

// TestPaperQ4Aggregation reproduces the shape of Q4: actors with at least
// K comedies, via GROUP BY + HAVING.
func TestPaperQ4Aggregation(t *testing.T) {
	ex := NewExecutor(movieDB())
	mkQuery := func(minCount int) *Query {
		return &Query{
			From: []string{"person", "castinfo", "movietogenre", "genre"},
			Joins: []Join{
				{"person", "id", "castinfo", "person_id"},
				{"castinfo", "movie_id", "movietogenre", "movie_id"},
				{"movietogenre", "genre_id", "genre", "id"},
			},
			Preds:         []Pred{{Rel: "genre", Col: "name", Op: OpEq, Val: relation.StringVal("Comedy")}},
			Select:        []ColRef{{"person", "name"}},
			GroupBy:       []ColRef{{"person", "id"}},
			HavingCountGE: minCount,
		}
	}
	res, err := ex.ExecuteCtx(context.Background(), mkQuery(2))
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	want := []string{"Ewan McGregor", "Jim Carrey"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("≥2 comedies: got %v want %v", got, want)
	}
	res3, err := ex.ExecuteCtx(context.Background(), mkQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := res3.Strings(); !reflect.DeepEqual(got, []string{"Jim Carrey"}) {
		t.Errorf("≥3 comedies: got %v", got)
	}
}

func TestDistinct(t *testing.T) {
	ex := NewExecutor(academicsDB())
	q := &Query{
		From:     []string{"research"},
		Select:   []ColRef{{"research", "interest"}},
		Distinct: true,
	}
	res, err := ex.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 5 {
		t.Errorf("distinct interests=%d want 5", res.NumRows())
	}
}

func TestIntersection(t *testing.T) {
	ex := NewExecutor(academicsDB())
	dataMgmt := &Query{
		From:   []string{"academics", "research"},
		Joins:  []Join{{"research", "aid", "academics", "id"}},
		Preds:  []Pred{{Rel: "research", Col: "interest", Op: OpEq, Val: relation.StringVal("data management")}},
		Select: []ColRef{{"academics", "name"}},
	}
	distSys := dataMgmt.Clone()
	distSys.Preds[0].Val = relation.StringVal("distributed systems")
	q := dataMgmt.Clone()
	q.Intersect = []*Query{distSys}
	res, err := ex.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	want := []string{"Joseph Hellerstein", "Sam Madden"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestJoinOrderIndependence(t *testing.T) {
	// The same 4-way join expressed with relations listed in a different
	// order must produce the same result set — and each listing goes
	// through the differential check, so every permutation behind its
	// From[0] returns the very same rows.
	db := movieDB()
	base := &Query{
		From: []string{"person", "castinfo", "movietogenre", "genre"},
		Joins: []Join{
			{"person", "id", "castinfo", "person_id"},
			{"castinfo", "movie_id", "movietogenre", "movie_id"},
			{"movietogenre", "genre_id", "genre", "id"},
		},
		Preds:  []Pred{{Rel: "genre", Col: "name", Op: OpEq, Val: relation.StringVal("Comedy")}},
		Select: []ColRef{{"person", "name"}},
	}
	shuffled := base.Clone()
	shuffled.From = []string{"genre", "movietogenre", "castinfo", "person"}
	r1 := &Result{Rows: checkDifferential(t, db, base)}
	r2 := &Result{Rows: checkDifferential(t, db, shuffled)}
	if len(r1.Rows) == 0 || !reflect.DeepEqual(r1.TupleSet(), r2.TupleSet()) {
		t.Errorf("join order changed result: %v vs %v", r1.Rows, r2.Rows)
	}
}

func TestDisconnectedJoinGraph(t *testing.T) {
	ex := NewExecutor(movieDB())
	q := &Query{
		From:   []string{"person", "genre"},
		Select: []ColRef{{"person", "name"}},
	}
	if _, err := ex.ExecuteCtx(context.Background(), q); err == nil {
		t.Error("disconnected join graph must error")
	}
}

func TestErrorPaths(t *testing.T) {
	ex := NewExecutor(academicsDB())
	cases := []*Query{
		{From: nil, Select: []ColRef{{"academics", "name"}}},
		{From: []string{"missing"}, Select: []ColRef{{"missing", "x"}}},
		{From: []string{"academics"}, Select: []ColRef{{"other", "name"}}},
		{From: []string{"academics"}, Select: []ColRef{{"academics", "missing"}}},
		{From: []string{"academics"}, Preds: []Pred{{Rel: "research", Col: "interest", Op: OpEq, Val: relation.StringVal("x")}}, Select: []ColRef{{"academics", "name"}}},
		{From: []string{"academics"}, Preds: []Pred{{Rel: "academics", Col: "missing", Op: OpEq, Val: relation.StringVal("x")}}, Select: []ColRef{{"academics", "name"}}},
		{From: []string{"academics", "academics"}, Select: []ColRef{{"academics", "name"}}},
		{From: []string{"academics"}, GroupBy: []ColRef{{"research", "aid"}}, Select: []ColRef{{"academics", "name"}}},
		{From: []string{"academics"}, GroupBy: []ColRef{{"academics", "missing"}}, Select: []ColRef{{"academics", "name"}}},
	}
	for i, q := range cases {
		if _, err := ex.ExecuteCtx(context.Background(), q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestBindRejectsQueriesWithoutAnAnswer: a query that selects nothing, a
// HAVING with no GROUP BY to count, a negative HAVING and a range between
// TEXT and a number are errors — not one empty row per tuple, a HAVING
// silently dropped, or a panic inside Value.Less — while their valid
// neighbours still execute.
func TestBindRejectsQueriesWithoutAnAnswer(t *testing.T) {
	ex := NewExecutor(academicsDB())
	name := []ColRef{{"academics", "name"}}
	cases := []struct {
		q    *Query
		want string // a fragment of the error; "" when the query is valid
	}{
		{&Query{From: []string{"academics"}}, "selects no column"},
		{&Query{From: []string{"academics"}, Select: name, HavingCountGE: 3}, "without GROUP BY"},
		{&Query{From: []string{"academics"}, Select: name, GroupBy: name, HavingCountGE: -1}, "negative"},
		{&Query{From: []string{"academics"}, Select: name, HavingCountGE: -1}, "negative"},
		{&Query{From: []string{"academics"}, Select: name, Preds: []Pred{{Rel: "academics", Col: "name", Op: OpGE, Val: relation.IntVal(5)}}}, "TEXT column"},
		{&Query{From: []string{"academics"}, Select: name, Preds: []Pred{{Rel: "academics", Col: "id", Op: OpLT, Val: relation.StringVal("5")}}}, "INTEGER column"},
		{&Query{From: []string{"academics"}, Select: name, Intersect: []*Query{{From: []string{"academics"}}}}, "selects no column"},
		{&Query{From: []string{"academics"}, Select: name, GroupBy: name, HavingCountGE: 1}, ""},
		{&Query{From: []string{"academics"}, Select: name, Preds: []Pred{{Rel: "academics", Col: "name", Op: OpEq, Val: relation.IntVal(5)}}}, ""},
	}
	for i, tc := range cases {
		_, err := ex.ExecuteCtx(context.Background(), tc.q)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("case %d: %v, want no error", i, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("case %d: error %v, want one saying %q", i, err, tc.want)
		}
	}
}

func TestCyclicJoinCondition(t *testing.T) {
	// A second join condition between two already-joined relations acts
	// as a filter (cycle in the join graph).
	db := relation.NewDatabase("t")
	a := relation.New("a", relation.Col("id", relation.Int), relation.Col("x", relation.Int))
	a.MustAppend(relation.IntVal(1), relation.IntVal(5))
	a.MustAppend(relation.IntVal(2), relation.IntVal(7))
	db.AddRelation(a)
	b := relation.New("b", relation.Col("aid", relation.Int), relation.Col("x", relation.Int))
	b.MustAppend(relation.IntVal(1), relation.IntVal(5)) // matches both id and x
	b.MustAppend(relation.IntVal(2), relation.IntVal(9)) // id matches, x does not
	db.AddRelation(b)
	ex := NewExecutor(db)
	q := &Query{
		From: []string{"a", "b"},
		Joins: []Join{
			{"a", "id", "b", "aid"},
			{"a", "x", "b", "x"},
		},
		Select: []ColRef{{"a", "id"}},
	}
	res, err := ex.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("cyclic join filter wrong: %v", res.Rows)
	}
}

func TestQueryCounters(t *testing.T) {
	q := &Query{
		From:  []string{"a", "b"},
		Joins: []Join{{"a", "id", "b", "aid"}},
		Preds: []Pred{{Rel: "b", Col: "x", Op: OpEq, Val: relation.IntVal(1)}},
		Intersect: []*Query{{
			From:  []string{"a", "c"},
			Joins: []Join{{"a", "id", "c", "aid"}},
			Preds: []Pred{
				{Rel: "c", Col: "y", Op: OpGE, Val: relation.IntVal(1)},
				{Rel: "c", Col: "y", Op: OpLE, Val: relation.IntVal(9)},
			},
		}},
	}
	if q.NumJoins() != 2 {
		t.Errorf("NumJoins=%d", q.NumJoins())
	}
	if q.NumPreds() != 3 {
		t.Errorf("NumPreds=%d", q.NumPreds())
	}
	if q.TotalPredicates() != 5 {
		t.Errorf("TotalPredicates=%d", q.TotalPredicates())
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := &Query{
		From:      []string{"a"},
		Preds:     []Pred{{Rel: "a", Col: "x", Op: OpEq, Val: relation.IntVal(1)}},
		Select:    []ColRef{{"a", "x"}},
		Intersect: []*Query{{From: []string{"b"}}},
	}
	c := q.Clone()
	c.Preds[0].Val = relation.IntVal(99)
	c.Intersect[0].From[0] = "z"
	if q.Preds[0].Val.Int() != 1 {
		t.Error("Clone shares Preds")
	}
	if q.Intersect[0].From[0] != "b" {
		t.Error("Clone shares Intersect")
	}
}

func TestPredString(t *testing.T) {
	p := Pred{Rel: "genre", Col: "name", Op: OpEq, Val: relation.StringVal("Comedy")}
	if got := p.String(); got != "genre.name = 'Comedy'" {
		t.Errorf("got %q", got)
	}
	in := Pred{Rel: "g", Col: "n", Op: OpIn, Vals: []relation.Value{relation.StringVal("a"), relation.StringVal("b")}}
	if got := in.String(); got != "g.n IN ('a', 'b')" {
		t.Errorf("got %q", got)
	}
	j := Join{"a", "id", "b", "aid"}
	if got := j.String(); got != "a.id = b.aid" {
		t.Errorf("got %q", got)
	}
}

func TestGroupByRepresentativeProjection(t *testing.T) {
	// GROUP BY person.id, SELECT person.name: the projected name must be
	// functionally consistent with the group key.
	ex := NewExecutor(movieDB())
	q := &Query{
		From:          []string{"person", "castinfo"},
		Joins:         []Join{{"person", "id", "castinfo", "person_id"}},
		Select:        []ColRef{{"person", "name"}},
		GroupBy:       []ColRef{{"person", "id"}},
		HavingCountGE: 1,
	}
	res, err := ex.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Strings()
	want := []string{"Ewan McGregor", "Jim Carrey", "Lauren Holly"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}
