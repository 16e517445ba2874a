package sqlgen

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/engine"
	"squid/internal/metrics"
	"squid/internal/relation"
)

// examplePool draws an example set of ten for every benchmark intent from
// its ground truth.
func examplePool(t *testing.T, db *relation.Database, benches []benchqueries.Benchmark) [][]string {
	t.Helper()
	rng := rand.New(rand.NewSource(20190625))
	var sets [][]string
	for _, b := range benches {
		truth, err := benchqueries.GroundTruth(db, b)
		if err != nil {
			t.Fatalf("%s: %v", b.ID, err)
		}
		sets = append(sets, metrics.Sample(rng, truth, 10))
	}
	return sets
}

// academicsDB is the paper's Fig 1 database: the one fixture whose
// intent is an attribute-table property, research(aid, interest).
func academicsDB() *relation.Database {
	db := relation.NewDatabase("cs_academics")
	a := relation.New("academics", relation.Col("id", relation.Int), relation.Col("name", relation.String)).SetPrimaryKey("id")
	for i, n := range []string{"Thomas Cormen", "Dan Suciu", "Jiawei Han", "Sam Madden", "James Kurose", "Joseph Hellerstein"} {
		a.MustAppend(relation.IntVal(int64(100+i)), relation.StringVal(n))
	}
	db.AddRelation(a)
	db.MarkEntity("academics")
	r := relation.New("research", relation.Col("aid", relation.Int), relation.Col("interest", relation.String)).
		AddForeignKey("aid", "academics", "id")
	for _, row := range []struct {
		aid      int64
		interest string
	}{
		{100, "algorithms"}, {101, "data management"}, {102, "data mining"},
		{103, "data management"}, {103, "distributed systems"},
		{104, "computer networks"}, {105, "data management"}, {105, "distributed systems"},
	} {
		r.MustAppend(relation.IntVal(row.aid), relation.StringVal(row.interest))
	}
	db.AddRelation(r)
	return db
}

// sameFilter reports whether two filters constrain the same property of
// the same epoch the same way.
func sameFilter(a, b *abduction.Filter) bool {
	return a.Kind == b.Kind && a.Basic == b.Basic && a.Derivd == b.Derivd &&
		slices.Equal(a.Values, b.Values) && a.Lo == b.Lo && a.Hi == b.Hi && a.Theta == b.Theta
}

// TestLiftFiltersInvertsToEngineQuery pins the matcher to the lowering:
// over every discovery of the request pool (discoveryPool) lifting the
// blocks of ToEngineQuery(res) recovers exactly the filters of
// res.Filters that ToEngineQuery placed as joins and predicates (same
// property, values, bounds, θ), leaves of each block the entity relation
// and the key lists of the filters it could not place, and intersects to
// the rows abduction.IntersectRows gives for the placed filters. A
// filter kind lower learns to spell without liftFilters learning to read
// it fails here instead of quietly running through the joins.
func TestLiftFiltersInvertsToEngineQuery(t *testing.T) {
	kinds := map[abduction.FilterKind]int{}
	paths := map[adb.PathType]int{}
	unplaced, branches := 0, 0
	for _, d := range discoveryPool(t, nil) {
		at, ep, res := d.at, d.ep, d.res
		info, pk := res.EntityInfo(), res.EntityInfo().PK
		var placed []*abduction.Filter
		for _, f := range res.Filters {
			// ToEngineQuery's test for a filter it can place in some block.
			var l lowered
			if l.lower(f, res.Base.Entity, pk, false); !f.NormUse && l.fits([]string{res.Base.Entity}) {
				placed = append(placed, f)
				kinds[f.Kind]++
				if f.Kind == abduction.BasicCategorical {
					paths[f.Basic.Access.Type]++
				}
			}
		}
		unplaced += len(res.Filters) - len(placed)

		q := ToEngineQuery(res)
		branches += len(q.Intersect)
		var lifted []*abduction.Filter
		keyLists := 0
		for _, block := range append([]*engine.Query{q}, q.Intersect...) {
			filters, rest := liftFilters(ep, block)
			lifted = append(lifted, filters...)
			if rest == nil {
				rest = block // nothing lifted: the block is what remains
			}
			if len(rest.From) != 1 || len(rest.Joins) != 0 {
				t.Errorf("%s: lifting leaves FROM %v and joins %v of the block\n%v", at, rest.From, rest.Joins, block)
			}
			for _, p := range rest.Preds {
				if p.Rel != res.Base.Entity || p.Col != pk || p.Op != engine.OpIn {
					t.Errorf("%s: lifting leaves predicate %v", at, p)
				}
				keyLists++
			}
		}
		if keyLists != len(res.Filters)-len(placed) {
			t.Errorf("%s: %d key lists remain for %d filters ToEngineQuery could not place", at, keyLists, len(res.Filters)-len(placed))
		}
		if len(lifted) != len(placed) {
			t.Errorf("%s: lifted %d filters, ToEngineQuery placed %d", at, len(lifted), len(placed))
		}
		for _, f := range placed {
			if !slices.ContainsFunc(lifted, func(g *abduction.Filter) bool { return sameFilter(f, g) }) {
				t.Errorf("%s: %v was lowered and not lifted back", at, f)
			}
		}
		if len(lifted) > 0 {
			if got, want := abduction.IntersectRowSet(lifted).ToSorted(), abduction.IntersectRows(info, placed); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: the lifted filters select %d rows, the placed ones %d", at, len(got), len(want))
			}
		}
	}
	t.Logf("filters placed by kind %v, categorical by access path %v; %d unplaced, %d INTERSECT branches", kinds, paths, unplaced, branches)
	for _, k := range []abduction.FilterKind{abduction.BasicCategorical, abduction.BasicNumeric, abduction.Derived} {
		if kinds[k] == 0 {
			t.Errorf("the pools placed no filter of kind %d: the round trip proves less than it says", k)
		}
	}
	for _, p := range []adb.PathType{adb.Direct, adb.FKDim, adb.FactDim, adb.AttrTable} {
		if paths[p] == 0 {
			t.Errorf("the pools placed no categorical filter of access path %d", p)
		}
	}
	if unplaced == 0 || branches == 0 {
		t.Errorf("%d unplaced filters and %d INTERSECT branches: the pools must produce both", unplaced, branches)
	}
}

// TestReduceDeclinesWeakPartial pins when a block that keeps a join is
// reduced at all: only when a lifted filter keeps at most half of the
// entity. A block the filters answer whole is reduced whatever they
// keep.
func TestReduceDeclinesWeakPartial(t *testing.T) {
	imdb := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 1500, NumMovies: 600, NumCompany: 30})
	alpha, err := adb.Build(imdb.DB, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ep := alpha.Snapshot()
	block := func(lo, hi int64, joined bool) *engine.Query {
		q := &engine.Query{
			From: []string{"person"},
			Preds: []engine.Pred{
				{Rel: "person", Col: "birth_year", Op: engine.OpGE, Val: relation.IntVal(lo)},
				{Rel: "person", Col: "birth_year", Op: engine.OpLE, Val: relation.IntVal(hi)},
			},
			Select:   []engine.ColRef{{Rel: "person", Col: "name"}},
			Distinct: true,
		}
		if joined {
			// A join no property spells: castinfo stays in the block.
			q.From = append(q.From, "castinfo")
			q.Joins = []engine.Join{{LeftRel: "person", LeftCol: "id", RightRel: "castinfo", RightCol: "person_id"}}
		}
		return q
	}
	for _, tc := range []struct {
		name    string
		q       *engine.Query
		reduced bool
	}{
		{"nine years in ten, joined", block(1930, 1997, true), false},
		{"one year in ten, joined", block(1930, 1937, true), true},
		{"nine years in ten, alone", block(1930, 1997, false), true},
	} {
		red, err := Reduce(context.Background(), ep, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if (red != nil) != tc.reduced {
			t.Errorf("%s: reduced %v, want %v", tc.name, red != nil, tc.reduced)
		}
		if red != nil && len(red.Rest.Preds) != 0 {
			t.Errorf("%s: the range stays in the block: %v", tc.name, red.Rest.Preds)
		}
	}
}
