package adb

import (
	"fmt"
	"math"
	"testing"

	"squid/internal/relation"
	"squid/internal/trace"
)

// fixtureDB builds the paper's running IMDb-style example (Figs 2, 5, 6):
// person (direct gender/age + FK-dim country), movie (direct year),
// genre dimension, castinfo fact (person-movie), movietogenre fact
// (movie-genre).
func fixtureDB() *relation.Database {
	db := relation.NewDatabase("mini_imdb")

	country := relation.New("country",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
	).SetPrimaryKey("id")
	country.MustAppend(relation.IntVal(1), relation.StringVal("USA"))
	country.MustAppend(relation.IntVal(2), relation.StringVal("Canada"))
	db.AddRelation(country)
	db.MarkProperty("country")

	person := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("gender", relation.String),
		relation.Col("age", relation.Int),
		relation.Col("country_id", relation.Int),
	).SetPrimaryKey("id").AddForeignKey("country_id", "country", "id")
	people := []struct {
		id      int64
		name    string
		gender  string
		age     int64
		country int64
	}{
		{1, "Tom Cruise", "Male", 50, 1},
		{2, "Clint Eastwood", "Male", 90, 1},
		{3, "Tom Hanks", "Male", 60, 1},
		{4, "Julia Roberts", "Female", 50, 1},
		{5, "Emma Stone", "Female", 29, 2},
		{6, "Julianne Moore", "Female", 60, 2},
	}
	for _, p := range people {
		person.MustAppend(relation.IntVal(p.id), relation.StringVal(p.name),
			relation.StringVal(p.gender), relation.IntVal(p.age), relation.IntVal(p.country))
	}
	db.AddRelation(person)
	db.MarkEntity("person")

	movie := relation.New("movie",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
		relation.Col("year", relation.Int),
	).SetPrimaryKey("id")
	for i := int64(0); i < 6; i++ {
		movie.MustAppend(relation.IntVal(10+i), relation.StringVal("Movie"+string(rune('A'+i))), relation.IntVal(2000+i))
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")

	genre := relation.New("genre",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
	).SetPrimaryKey("id")
	genre.MustAppend(relation.IntVal(100), relation.StringVal("Comedy"))
	genre.MustAppend(relation.IntVal(101), relation.StringVal("Drama"))
	db.AddRelation(genre)
	db.MarkProperty("genre")

	castinfo := relation.New("castinfo",
		relation.Col("person_id", relation.Int),
		relation.Col("movie_id", relation.Int),
	).AddForeignKey("person_id", "person", "id").AddForeignKey("movie_id", "movie", "id")
	// person 1 in movies 10,11,12 (all Comedy); person 2 in 13,14 (Drama);
	// person 3 in 10 only; persons 4-6 in no movies.
	for _, c := range [][2]int64{{1, 10}, {1, 11}, {1, 12}, {2, 13}, {2, 14}, {3, 10}, {1, 10}} {
		castinfo.MustAppend(relation.IntVal(c[0]), relation.IntVal(c[1]))
	}
	db.AddRelation(castinfo)

	mg := relation.New("movietogenre",
		relation.Col("movie_id", relation.Int),
		relation.Col("genre_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("genre_id", "genre", "id")
	for _, x := range [][2]int64{{10, 100}, {11, 100}, {12, 100}, {13, 101}, {14, 101}, {15, 101}} {
		mg.MustAppend(relation.IntVal(x[0]), relation.IntVal(x[1]))
	}
	db.AddRelation(mg)
	return db
}

func buildFixture(t *testing.T) *AlphaDB {
	t.Helper()
	a, err := Build(fixtureDB(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildDiscoversEntities(t *testing.T) {
	a := buildFixture(t)
	if len(a.Snapshot().Entities) != 2 {
		t.Fatalf("entities=%d want 2", len(a.Snapshot().Entities))
	}
	p := a.Entity("person")
	if p == nil || p.NumRows != 6 || p.PK != "id" {
		t.Fatalf("person info wrong: %+v", p)
	}
	if _, ok := p.RowByID(3); !ok {
		t.Error("RowByID failed")
	}
	if p.IDByRow(0) != 1 {
		t.Error("IDByRow failed")
	}
}

func TestBasicDirectProperties(t *testing.T) {
	p := buildFixture(t).Entity("person")
	gender := p.BasicByAttr("gender")
	if gender == nil || gender.Kind != Categorical {
		t.Fatal("gender property missing")
	}
	if got := gender.CategoricalSelectivity("Male"); got != 0.5 {
		t.Errorf("ψ(gender=Male)=%v want 0.5", got)
	}
	if got := gender.Values(0); len(got) != 1 || got[0] != "Male" {
		t.Errorf("Values(0)=%v", got)
	}
	age := p.BasicByAttr("age")
	if age == nil || age.Kind != Numeric {
		t.Fatal("age property missing")
	}
	// Fig 6: ψ(age∈[50,90]) = 5/6.
	if got := age.RangeSelectivity(50, 90); math.Abs(got-5.0/6.0) > 1e-9 {
		t.Errorf("ψ(age[50,90])=%v want 5/6", got)
	}
	if v, ok := age.NumValue(1); !ok || v != 90 {
		t.Errorf("NumValue(1)=%v,%v", v, ok)
	}
}

// TestIdentifierColumnsExcluded checks the distinct-ratio guard: on a
// relation large enough for the ratio to be meaningful, a unique text
// column (names) is not treated as a semantic property.
func TestIdentifierColumnsExcluded(t *testing.T) {
	db := relation.NewDatabase("big")
	p := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("gender", relation.String),
	).SetPrimaryKey("id")
	for i := 0; i < 80; i++ {
		g := "Male"
		if i%2 == 0 {
			g = "Female"
		}
		p.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("Person %d", i)), relation.StringVal(g))
	}
	db.AddRelation(p)
	db.MarkEntity("person")
	a, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	info := a.Entity("person")
	if info.BasicByAttr("name") != nil {
		t.Error("unique name column must be excluded from properties")
	}
	if info.BasicByAttr("gender") == nil {
		t.Error("low-cardinality gender column must be kept")
	}
}

func TestBasicFKDimProperty(t *testing.T) {
	p := buildFixture(t).Entity("person")
	country := p.BasicByAttr("country")
	if country == nil {
		t.Fatal("country FK-dim property missing")
	}
	if country.Access.Type != FKDim || country.Access.Dim != "country" {
		t.Errorf("access=%+v", country.Access)
	}
	if got := country.CategoricalSelectivity("Canada"); math.Abs(got-2.0/6.0) > 1e-9 {
		t.Errorf("ψ(country=Canada)=%v", got)
	}
	if got := country.Values(4); len(got) != 1 || got[0] != "Canada" {
		t.Errorf("Values(4)=%v", got)
	}
	rows := country.EntityRowsWithValue("Canada")
	if len(rows) != 2 || rows[0] != 4 || rows[1] != 5 {
		t.Errorf("rows=%v", rows)
	}
}

func TestBasicFactDimProperty(t *testing.T) {
	m := buildFixture(t).Entity("movie")
	genre := m.BasicByAttr("genre")
	if genre == nil || !genre.MultiValued {
		t.Fatal("movie genre fact-dim property missing or not multi-valued")
	}
	if got := genre.CategoricalSelectivity("Comedy"); math.Abs(got-3.0/6.0) > 1e-9 {
		t.Errorf("ψ(genre=Comedy)=%v want 0.5", got)
	}
	if got := genre.Values(0); len(got) != 1 || got[0] != "Comedy" {
		t.Errorf("Values(movie 10)=%v", got)
	}
}

func TestDerivedPersonToGenre(t *testing.T) {
	p := buildFixture(t).Entity("person")
	ptg := p.DerivedByAttr("movie:genre")
	if ptg == nil {
		t.Fatalf("persontogenre derived property missing; have %v", attrNames(p))
	}
	if ptg.RelName != "persontomovie_genre" {
		t.Errorf("RelName=%q", ptg.RelName)
	}
	// Person 1: 3 comedies (duplicate castinfo row for movie 10 counts once).
	counts := ptg.Counts(1)
	if counts["Comedy"] != 3 {
		t.Errorf("person 1 comedy count=%d want 3 (dedup)", counts["Comedy"])
	}
	// Person 2: 2 dramas.
	if got := ptg.Counts(2); got["Drama"] != 2 {
		t.Errorf("person 2 drama count=%v", got)
	}
	// ψ(genre=Comedy, θ=3) = 1/6 (only person 1).
	if got := ptg.Selectivity("Comedy", 3); math.Abs(got-1.0/6.0) > 1e-9 {
		t.Errorf("ψ(Comedy,3)=%v", got)
	}
	// ψ(genre=Comedy, θ=1) = 2/6 (persons 1 and 3).
	if got := ptg.Selectivity("Comedy", 1); math.Abs(got-2.0/6.0) > 1e-9 {
		t.Errorf("ψ(Comedy,1)=%v", got)
	}
	// θ=0 is satisfied by everyone.
	if got := ptg.Selectivity("Comedy", 0); got != 1 {
		t.Errorf("ψ(Comedy,0)=%v", got)
	}
	if got := ptg.MaxStrength("Comedy"); got != 3 {
		t.Errorf("MaxStrength=%d", got)
	}
	rows := ptg.EntityRowSetWithStrength("Comedy", 2, trace.Span{}, true).ToSorted()
	if len(rows) != 1 || rows[0] != 0 {
		t.Errorf("rows(Comedy,≥2)=%v", rows)
	}
}

func TestDerivedDegree(t *testing.T) {
	p := buildFixture(t).Entity("person")
	deg := p.DerivedByAttr("movie:count")
	if deg == nil {
		t.Fatalf("degree property missing; have %v", attrNames(p))
	}
	if got := deg.Counts(1); got["movie"] != 3 {
		t.Errorf("person 1 degree=%v", got)
	}
	// 3 of 6 persons appear in ≥1 movie.
	if got := deg.Selectivity("movie", 1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ψ(degree≥1)=%v", got)
	}
}

func TestDomainCoverage(t *testing.T) {
	p := buildFixture(t).Entity("person")
	age := p.BasicByAttr("age")
	// Domain is [29, 90], span 61.
	if got := age.DomainCoverage(29, 90); got != 1 {
		t.Errorf("full coverage=%v", got)
	}
	if got := age.DomainCoverage(50, 60); math.Abs(got-10.0/61.0) > 1e-9 {
		t.Errorf("coverage=%v", got)
	}
	gender := p.BasicByAttr("gender")
	if got := gender.CategoricalDomainCoverage(1); got != 0.5 {
		t.Errorf("cat coverage=%v", got)
	}
	if got := gender.CategoricalDomainCoverage(5); got != 1 {
		t.Errorf("cat coverage clamps to 1, got %v", got)
	}
}

func TestCombinedDBContainsDerived(t *testing.T) {
	a := buildFixture(t)
	c := a.CombinedDB()
	if c.Relation("persontomovie_genre") == nil {
		t.Error("combined DB must include derived relations")
	}
	if c.Relation("person") == nil {
		t.Error("combined DB must include original relations")
	}
}

func TestStats(t *testing.T) {
	a := buildFixture(t)
	s := a.ComputeStats()
	if s.NumRelations != 6 {
		t.Errorf("relations=%d", s.NumRelations)
	}
	if s.NumDerivedRels == 0 || s.DerivedRows == 0 {
		t.Error("derived stats empty")
	}
	if s.NumBasicProps == 0 || s.NumDerivedProp == 0 {
		t.Error("property counts empty")
	}
	if s.String() == "" {
		t.Error("String render empty")
	}
}

func TestBuildErrors(t *testing.T) {
	db := relation.NewDatabase("bad")
	db.AddRelation(relation.New("x", relation.Col("id", relation.Int)))
	if _, err := Build(db, DefaultConfig()); err == nil {
		t.Error("no entity relations must error")
	}

	db2 := relation.NewDatabase("bad2")
	db2.AddRelation(relation.New("e", relation.Col("id", relation.Int)))
	db2.MarkEntity("e")
	if _, err := Build(db2, DefaultConfig()); err == nil {
		t.Error("entity without PK must error")
	}

	db3 := relation.NewDatabase("bad3")
	r := relation.New("e", relation.Col("id", relation.String)).SetPrimaryKey("id")
	r.MustAppend(relation.StringVal("a"))
	db3.AddRelation(r)
	db3.MarkEntity("e")
	if _, err := Build(db3, DefaultConfig()); err == nil {
		t.Error("non-integer PK must error")
	}
}

func TestSelectivityBounds(t *testing.T) {
	// All selectivities must lie in [0, 1].
	a := buildFixture(t)
	for _, e := range a.Snapshot().Entities {
		for _, b := range e.Basic {
			if b.Kind == Categorical {
				for _, v := range b.DistinctValues() {
					if s := b.CategoricalSelectivity(v); s < 0 || s > 1 {
						t.Errorf("%s ψ(%s)=%v out of range", b, v, s)
					}
				}
			} else {
				lo, hi, _ := b.NumRange()
				if s := b.RangeSelectivity(lo, hi); s <= 0 || s > 1 {
					t.Errorf("%s full-range ψ=%v", b, s)
				}
			}
		}
		for _, d := range e.Derived {
			for _, v := range d.DistinctValues() {
				for theta := 0; theta <= d.MaxStrength(v)+1; theta++ {
					if s := d.Selectivity(v, theta); s < 0 || s > 1 {
						t.Errorf("%s ψ(%s,%d)=%v out of range", d, v, theta, s)
					}
				}
			}
		}
	}
}

func TestDerivedSelectivityMonotoneInTheta(t *testing.T) {
	a := buildFixture(t)
	for _, e := range a.Snapshot().Entities {
		for _, d := range e.Derived {
			for _, v := range d.DistinctValues() {
				prev := 2.0
				for theta := 1; theta <= d.MaxStrength(v)+2; theta++ {
					s := d.Selectivity(v, theta)
					if s > prev {
						t.Errorf("%s ψ(%s,θ) not monotone at θ=%d: %v > %v", d, v, theta, s, prev)
					}
					prev = s
				}
			}
		}
	}
}

func TestMaxFactDepth1SkipsSecondHop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFactDepth = 1
	a, err := Build(fixtureDB(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := a.Entity("person")
	if p.DerivedByAttr("movie:genre") != nil {
		t.Error("depth-1 build must not create persontogenre")
	}
	if p.DerivedByAttr("movie:count") == nil {
		t.Error("depth-1 build must still create the degree property")
	}
}

func attrNames(e *EntityInfo) []string {
	var out []string
	for _, b := range e.Basic {
		out = append(out, "basic:"+b.Attr)
	}
	for _, d := range e.Derived {
		out = append(out, "derived:"+d.Attr)
	}
	return out
}
