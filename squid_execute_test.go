package squid

import (
	"testing"

	"squid/internal/datagen"
	"squid/internal/engine"
)

// TestExecuteBuildsNoJoinIndexes is the heap_mb trap as a test: after an
// InsertBatch into castinfo has dropped what it dropped, executing the
// benchmark's three discovered plans may build the hash indexes of their
// point predicates (the executor always did) and nothing else — no hash
// index on a join column of castinfo, no sorted numeric index on a
// derived relation's count column. A join uses an index that is
// resident and never creates one.
func TestExecuteBuildsNoJoinIndexes(t *testing.T) {
	cfg := benchScale().IMDb
	g := datagen.GenerateIMDb(cfg)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	plans := discoveredPlans(t, sys, g)
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
	if after := ep.Indexes.NumIndexes(); after > before+len(point) {
		t.Errorf("executing the plans took the pool from %d to %d hash indexes, with %d point-predicate columns to index", before, after, len(point))
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
