package squid

import (
	"reflect"
	"slices"
	"testing"

	"squid/internal/datagen"
	"squid/internal/engine"
	"squid/internal/index"
)

// TestExecuteBuildsNoJoinIndexes is the heap_mb trap as a test:
// executing the benchmark's three discovered plans builds the hash
// indexes of their point predicates once (the executor always did) —
// and an InsertBatch into castinfo carries those into the next epoch,
// so executing the plans again builds nothing at all: no point index
// over again, no hash index on a join column of castinfo, no sorted
// numeric index on a derived relation's count column. A join uses an
// index that is resident and never creates one.
func TestExecuteBuildsNoJoinIndexes(t *testing.T) {
	cfg := benchScale().IMDb
	g := datagen.GenerateIMDb(cfg)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	plans := discoveredPlans(t, sys, g)
	for id, q := range plans {
		if _, err := sys.Execute(q); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if err := sys.InsertBatch(insertBenchBatch(cfg, 0)); err != nil {
		t.Fatal(err)
	}
	ep := sys.alpha.Snapshot()
	db := ep.CombinedDB()
	before := ep.Indexes.NumIndexes()

	type column struct{ rel, col string }
	point := map[column]bool{}
	var counts []column
	for id, q := range plans {
		for _, p := range q.Preds {
			switch {
			case p.Op == engine.OpEq || p.Op == engine.OpIn:
				point[column{p.Rel, p.Col}] = true
			case p.Col == "count":
				counts = append(counts, column{p.Rel, p.Col})
			}
		}
		res, err := sys.Execute(q)
		if err != nil || res.NumRows() == 0 {
			t.Fatalf("%s: empty result or error %v", id, err)
		}
	}
	if sys.alpha.Snapshot() != ep {
		t.Fatal("the epoch moved under the test")
	}
	if len(point) == 0 {
		t.Fatal("no plan has a point predicate: the test proves nothing")
	}
	if after := ep.Indexes.NumIndexes(); after != before {
		t.Errorf("executing the plans took the pool from %d to %d hash indexes: the batch dropped the index of one of the %d point-predicate columns", before, after, len(point))
	}
	if len(counts) == 0 {
		t.Fatal("no plan ranges over a derived count column: the test proves nothing")
	}
	for _, c := range counts {
		if ep.Indexes.ResidentNumeric(db.Relation(c.rel), c.col) != nil {
			t.Errorf("a sorted numeric index on %s.%s is resident: the range was verified per row, nothing should have built it", c.rel, c.col)
		}
	}
	cast := db.Relation("castinfo")
	for _, c := range cast.Columns() {
		if ep.Indexes.ResidentIntHash(cast, c.Name) != nil {
			t.Errorf("a hash index on castinfo.%s is resident after executing the plans", c.Name)
		}
	}
}

// TestInsertKeepsDerivedValueIndex: a batch that bumps the counts of a
// derived relation (and appends rows to it) carries the relation's
// value hash index into the next epoch — adopted on the writer's first
// touch and maintained row by row — instead of dropping it for the
// plans to rebuild; and the carried index answers every key as an index
// built fresh from the new epoch's relation does.
func TestInsertKeepsDerivedValueIndex(t *testing.T) {
	cfg := benchScale().IMDb
	sys, err := Build(datagen.GenerateIMDb(cfg).DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	const relName = "persontomovie_genre"
	base := sys.alpha.Snapshot()
	rel := base.DerivedDB.Relation(relName)
	if rel == nil {
		t.Fatalf("no derived relation %q", relName)
	}
	base.Indexes.StrHash(rel, "value")
	for k := 0; k < 3; k++ {
		if err := sys.InsertBatch(insertBenchBatch(cfg, k)); err != nil {
			t.Fatal(err)
		}
	}
	ep := sys.alpha.Snapshot()
	next := ep.DerivedDB.Relation(relName)
	if next == rel || next.NumRows() <= rel.NumRows() {
		t.Fatalf("the batches did not reach %s (%d rows before, %d after)", relName, rel.NumRows(), next.NumRows())
	}
	resident := ep.Indexes.NumIndexes()
	h := ep.Indexes.StrHash(next, "value")
	if ep.Indexes.NumIndexes() != resident {
		t.Fatalf("%s.value was not resident in the new epoch: the lookup built it", relName)
	}
	fresh := index.BuildStrHash(next, "value")
	if h.NumKeys() != fresh.NumKeys() {
		t.Errorf("carried index has %d keys, a fresh one %d", h.NumKeys(), fresh.NumKeys())
	}
	for _, v := range next.Column("value").Dict().Values() {
		if got, want := h.Rows(v), fresh.Rows(v); !reflect.DeepEqual(got, want) {
			t.Errorf("Rows(%q) = %v, a fresh index answers %v", v, got, want)
		}
	}
}

// TestExecuteMatchesOutputNormalized: executing the plan of a discovery
// returns the discovery's output also when a filter's strength threshold
// is normalized by the entity's degree. No join of the plan expresses
// such a filter; the plan carries its row set as keys — dropped instead,
// the plan answered with every entity the remaining filters let through.
func TestExecuteMatchesOutputNormalized(t *testing.T) {
	g := datagen.GenerateIMDb(benchScale().IMDb)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.NormalizeAssociation = true
	sys.SetParams(params)
	d, err := sys.Discover(exampleNames(t, sys, g, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(d.Filters, func(f *Filter) bool { return f.NormUse }) {
		t.Fatal("no normalized filter was abduced: the test proves nothing")
	}
	res, err := sys.Execute(d.Plan())
	if err != nil {
		t.Fatal(err)
	}
	got, want := slices.Compact(res.Strings()), slices.Compact(slices.Clone(d.Output))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Execute(Plan()) returned %d distinct names, Output has %d", len(got), len(want))
	}
}
