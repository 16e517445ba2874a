package adb

import (
	"testing"

	"squid/internal/relation"
)

// TestSelfReferencingFact: a fact table linking an entity to itself
// (movie sequels) must build derived properties without infinite loops.
func TestSelfReferencingFact(t *testing.T) {
	db := relation.NewDatabase("selfref")
	movie := relation.New("movie",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
		relation.Col("kind", relation.String),
	).SetPrimaryKey("id")
	for i := int64(0); i < 6; i++ {
		kind := "feature"
		if i%2 == 0 {
			kind = "short"
		}
		movie.MustAppend(relation.IntVal(i), relation.StringVal("M"+string(rune('A'+i))), relation.StringVal(kind))
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")

	sequel := relation.New("sequelof",
		relation.Col("movie_id", relation.Int),
		relation.Col("original_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("original_id", "movie", "id")
	sequel.MustAppend(relation.IntVal(1), relation.IntVal(0))
	sequel.MustAppend(relation.IntVal(2), relation.IntVal(0))
	sequel.MustAppend(relation.IntVal(3), relation.IntVal(2))
	db.AddRelation(sequel)

	a, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	info := a.Entity("movie")
	// Both directions of the self-edge yield derived properties.
	if len(info.Derived) == 0 {
		t.Error("self-referencing fact produced no derived properties")
	}
	// Both directions get their own qualified degree property: the
	// sequels-of-a-movie direction (via original_id) must count movie
	// 0's two sequels.
	degA := info.DerivedByAttr("movie_movie_id:count")
	degB := info.DerivedByAttr("movie_original_id:count")
	if degA == nil || degB == nil {
		t.Fatalf("self-association degrees missing; have %v", attrNames(info))
	}
	counted := false
	for _, deg := range []*DerivedProperty{degA, degB} {
		if got := countsOf(deg, 0); got["movie"] == 2 {
			counted = true
		}
	}
	if !counted {
		t.Error("movie 0 has 2 sequels; one direction's degree should count them")
	}
}

// TestDanglingForeignKeys: fact rows referencing missing entities are
// skipped, not fatal (dirty-data resilience).
func TestDanglingForeignKeys(t *testing.T) {
	db := relation.NewDatabase("dangling")
	person := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
	).SetPrimaryKey("id")
	person.MustAppend(relation.IntVal(1), relation.StringVal("A"))
	person.MustAppend(relation.IntVal(2), relation.StringVal("B"))
	db.AddRelation(person)
	db.MarkEntity("person")

	genre := relation.New("genre",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
	).SetPrimaryKey("id")
	genre.MustAppend(relation.IntVal(1), relation.StringVal("Comedy"))
	db.AddRelation(genre)
	db.MarkProperty("genre")

	fact := relation.New("persontogenre_raw",
		relation.Col("person_id", relation.Int),
		relation.Col("genre_id", relation.Int),
	).AddForeignKey("person_id", "person", "id").AddForeignKey("genre_id", "genre", "id")
	fact.MustAppend(relation.IntVal(1), relation.IntVal(1))
	fact.MustAppend(relation.IntVal(99), relation.IntVal(1)) // dangling person
	fact.MustAppend(relation.IntVal(2), relation.IntVal(77)) // dangling genre
	fact.MustAppend(relation.IntVal(1), relation.Null)       // NULL FK
	db.AddRelation(fact)

	a, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := a.Entity("person").BasicByAttr("genre")
	if p == nil {
		t.Fatal("fact-dim property missing")
	}
	if got := p.SelectivityOfCode(p.code("Comedy")); got != 0.5 {
		t.Errorf("dangling rows must be skipped: ψ=%v want 0.5", got)
	}
}

// TestEmptyRelations: empty entity and fact relations build cleanly.
func TestEmptyRelations(t *testing.T) {
	db := relation.NewDatabase("empty")
	person := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
	).SetPrimaryKey("id")
	db.AddRelation(person)
	db.MarkEntity("person")
	fact := relation.New("f",
		relation.Col("person_id", relation.Int),
		relation.Col("other_id", relation.Int),
	).AddForeignKey("person_id", "person", "id").AddForeignKey("other_id", "person", "id")
	db.AddRelation(fact)

	a, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	info := a.Entity("person")
	if info.NumRows != 0 {
		t.Error("empty entity should have zero rows")
	}
	// Selectivity on empty statistics must not divide by zero.
	for _, p := range info.Basic {
		if p.Kind == Categorical {
			if s := p.SelectivityOfCode(p.code("x")); s != 0 {
				t.Errorf("empty ψ=%v", s)
			}
		}
	}
}

// TestWideFactTable: a fact with three entity FKs (castinfo with person,
// movie, role-as-entity) builds pairwise derived properties for every
// entity pair without duplication blowups.
func TestWideFactTable(t *testing.T) {
	db := relation.NewDatabase("wide")
	for _, name := range []string{"a", "b", "c"} {
		e := relation.New(name,
			relation.Col("id", relation.Int),
			relation.Col("name", relation.String),
		).SetPrimaryKey("id")
		for i := int64(0); i < 4; i++ {
			e.MustAppend(relation.IntVal(i), relation.StringVal(name+"-"+string(rune('0'+i))))
		}
		db.AddRelation(e)
		db.MarkEntity(name)
	}
	fact := relation.New("f",
		relation.Col("a_id", relation.Int),
		relation.Col("b_id", relation.Int),
		relation.Col("c_id", relation.Int),
	).AddForeignKey("a_id", "a", "id").AddForeignKey("b_id", "b", "id").AddForeignKey("c_id", "c", "id")
	for i := int64(0); i < 4; i++ {
		fact.MustAppend(relation.IntVal(i), relation.IntVal((i+1)%4), relation.IntVal((i+2)%4))
	}
	db.AddRelation(fact)

	a, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Each entity gets derived properties toward both of the other two.
	for _, name := range []string{"a", "b", "c"} {
		info := a.Entity(name)
		kinds := map[string]bool{}
		for _, d := range info.Derived {
			kinds[d.Via] = true
		}
		if len(kinds) != 2 {
			t.Errorf("entity %s: derived toward %v, want both partners", name, kinds)
		}
	}
}

// TestAllNullColumn: a column of only NULLs is skipped as a property.
func TestAllNullColumn(t *testing.T) {
	db := relation.NewDatabase("nulls")
	person := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("age", relation.Int),
	).SetPrimaryKey("id")
	for i := int64(0); i < 3; i++ {
		person.MustAppend(relation.IntVal(i), relation.StringVal("P"+string(rune('0'+i))), relation.Null)
	}
	db.AddRelation(person)
	db.MarkEntity("person")
	a, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Entity("person").BasicByAttr("age") != nil {
		t.Error("all-NULL numeric column must not become a property")
	}
}
