package talos

import (
	"context"
	"testing"

	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/metrics"
)

func buildAdult(t *testing.T, rows int) (*datagen.Adult, *adb.AlphaDB) {
	t.Helper()
	g := datagen.GenerateAdult(datagen.AdultConfig{Seed: 5, NumRows: rows, ScaleFactor: 1})
	alpha, err := adb.Build(g.DB, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g, alpha
}

// TestAdultQRE mirrors Fig 14: on the single-relation Adult dataset,
// TALOS reverse-engineers benchmark queries near-perfectly (the closed
// world matches its assumptions) at the cost of many predicates.
func TestAdultQRE(t *testing.T) {
	g, alpha := buildAdult(t, 1500)
	info := alpha.Entity("adult")
	bench := benchqueries.AdultBenchmarks(context.Background(), g, 42)[:4]
	for _, b := range bench {
		truth, err := benchqueries.GroundTruth(g.DB, b)
		if err != nil {
			t.Fatal(err)
		}
		res := ReverseEngineer(info, "name", truth, DefaultConfig())
		prf := metrics.Compare(res.Output, truth)
		if prf.FScore < 0.9 {
			t.Errorf("%s: f-score=%.3f (truth=%d, got=%d)", b.ID, prf.FScore, len(truth), len(res.Output))
		}
		if res.NumPredicates == 0 {
			t.Errorf("%s: no predicates extracted", b.ID)
		}
	}
}

// TestIMDbMislabeling reproduces the §7.5 IQ1 analysis: on a star
// schema, TALOS labels all denormalized rows of a cast member positive
// — including rows for other movies — so the reverse-engineered query
// is imperfect while SQuID's entity-level semantics are exact.
func TestIMDbMislabeling(t *testing.T) {
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 800, NumMovies: 300, NumCompany: 20})
	alpha, err := adb.Build(g.DB, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	info := alpha.Entity("person")
	bench := benchqueries.IMDbBenchmarks(g)
	var iq1 benchqueries.Benchmark
	for _, b := range bench {
		if b.ID == "IQ1" {
			iq1 = b
		}
	}
	truth, err := benchqueries.GroundTruth(g.DB, iq1)
	if err != nil {
		t.Fatal(err)
	}
	res := ReverseEngineer(info, "name", truth, DefaultConfig())
	prf := metrics.Compare(res.Output, truth)
	t.Logf("IQ1 TALOS: f-score=%.3f predicates=%d rows=%d", prf.FScore, res.NumPredicates, res.Rows)
	if prf.FScore == 0 {
		t.Error("TALOS should recover a noticeable part of the cast")
	}
	if prf.Recall > 0.999 && prf.Precision > 0.999 && res.NumPredicates <= 2 {
		t.Error("perfect single-predicate recovery contradicts the paper's mislabeling analysis")
	}
}

func TestDenormalizeCap(t *testing.T) {
	_, alpha := buildAdult(t, 200)
	info := alpha.Entity("adult")
	// Single relation: one row per entity regardless of the cap.
	table := denormalize(info, 1000)
	if len(table.rows) != 200 {
		t.Errorf("rows=%d want 200", len(table.rows))
	}
	if len(table.feats) == 0 {
		t.Error("no features")
	}
}

func TestDenormalizeExpansion(t *testing.T) {
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 700, NumMovies: 250, NumCompany: 15})
	alpha, err := adb.Build(g.DB, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	info := alpha.Entity("person")
	expanded := denormalize(info, 250000)
	if len(expanded.rows) <= info.NumRows {
		t.Errorf("multi-valued expansion missing: %d rows for %d entities", len(expanded.rows), info.NumRows)
	}
	// With a tight cap the table stays near the entity count.
	capped := denormalize(info, info.NumRows+10)
	if len(capped.rows) > info.NumRows+10 {
		t.Errorf("row cap violated: %d", len(capped.rows))
	}
	// Every row maps back to a valid entity.
	for _, e := range capped.entityOf {
		if e < 0 || e >= info.NumRows {
			t.Fatalf("bad entity mapping %d", e)
		}
	}
}

func TestClosedWorldExactInput(t *testing.T) {
	// Reverse engineering a selection the tree can express: sex=Female
	// AND education=Doctorate.
	g, alpha := buildAdult(t, 1200)
	info := alpha.Entity("adult")
	rel := g.DB.Relation("adult")
	var truth []string
	for i := 0; i < rel.NumRows(); i++ {
		if rel.Get(i, "sex").Str() == "Female" && rel.Get(i, "education").Str() == "Doctorate" {
			truth = append(truth, rel.Get(i, "name").Str())
		}
	}
	if len(truth) < 3 {
		t.Skip("fixture too small for this intent")
	}
	res := ReverseEngineer(info, "name", truth, DefaultConfig())
	prf := metrics.Compare(res.Output, truth)
	if prf.FScore < 0.95 {
		t.Errorf("expressible query not recovered: f=%.3f", prf.FScore)
	}
}
