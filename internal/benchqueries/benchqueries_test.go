package benchqueries

import (
	"context"
	"testing"

	"squid/internal/datagen"
)

func tinyIMDb() *datagen.IMDb {
	return datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 1200, NumMovies: 500, NumCompany: 30})
}

func tinyDBLP() *datagen.DBLP {
	return datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 3, NumAuthor: 600, NumPubs: 1200})
}

func TestIMDbBenchmarksExecutable(t *testing.T) {
	g := tinyIMDb()
	bs := IMDbBenchmarks(g)
	if len(bs) != 16 {
		t.Fatalf("benchmarks=%d want 16", len(bs))
	}
	nonEmpty := 0
	for _, b := range bs {
		card, err := Cardinality(context.Background(), g.DB, b)
		if err != nil {
			t.Errorf("%s: %v", b.ID, err)
			continue
		}
		if card > 0 {
			nonEmpty++
		}
		t.Logf("%s (%s): %d results", b.ID, b.Intent, card)
	}
	// At this scale a few statistically-defined queries (IQ4, IQ9) may
	// be empty, but the planted ones must not be.
	if nonEmpty < 12 {
		t.Errorf("only %d of 16 benchmarks non-empty", nonEmpty)
	}
}

func TestIMDbPlantedCardinalities(t *testing.T) {
	g := tinyIMDb()
	bs := IMDbBenchmarks(g)
	byID := map[string]Benchmark{}
	for _, b := range bs {
		byID[b.ID] = b
	}
	// IQ1: blockbuster cast ≈ 110.
	card, err := Cardinality(context.Background(), g.DB, byID["IQ1"])
	if err != nil {
		t.Fatal(err)
	}
	if card < 100 {
		t.Errorf("IQ1 cardinality=%d want ≥100", card)
	}
	// IQ2: the 20 planted trilogy actors (generic casting can add a
	// coincidental member or two).
	card, err = Cardinality(context.Background(), g.DB, byID["IQ2"])
	if err != nil {
		t.Fatal(err)
	}
	if card < 20 || card > 25 {
		t.Errorf("IQ2 cardinality=%d want ≈20", card)
	}
	// IQ5: the duo's 12 shared movies.
	card, err = Cardinality(context.Background(), g.DB, byID["IQ5"])
	if err != nil {
		t.Fatal(err)
	}
	if card < 12 {
		t.Errorf("IQ5 cardinality=%d want ≥12", card)
	}
	// IQ6: the 36 directed movies.
	card, err = Cardinality(context.Background(), g.DB, byID["IQ6"])
	if err != nil {
		t.Fatal(err)
	}
	if card != 36 {
		t.Errorf("IQ6 cardinality=%d want 36", card)
	}
	// IQ7: all genres.
	card, err = Cardinality(context.Background(), g.DB, byID["IQ7"])
	if err != nil {
		t.Fatal(err)
	}
	if card < 15 {
		t.Errorf("IQ7 cardinality=%d want all genres", card)
	}
}

func TestDBLPBenchmarksExecutable(t *testing.T) {
	g := tinyDBLP()
	bs := DBLPBenchmarks(g)
	if len(bs) != 5 {
		t.Fatalf("benchmarks=%d want 5", len(bs))
	}
	for _, b := range bs {
		card, err := Cardinality(context.Background(), g.DB, b)
		if err != nil {
			t.Errorf("%s: %v", b.ID, err)
			continue
		}
		if card == 0 {
			t.Errorf("%s (%s): empty result", b.ID, b.Intent)
		}
		t.Logf("%s: %d results", b.ID, card)
	}
}

func TestDBLPPlantedCardinalities(t *testing.T) {
	g := tinyDBLP()
	bs := DBLPBenchmarks(g)
	byID := map[string]Benchmark{}
	for _, b := range bs {
		byID[b.ID] = b
	}
	// DQ4: exactly the 15 trio publications.
	card, err := Cardinality(context.Background(), g.DB, byID["DQ4"])
	if err != nil {
		t.Fatal(err)
	}
	if card != 15 {
		t.Errorf("DQ4 cardinality=%d want 15", card)
	}
	// DQ1: at least the 20 planted dual-affiliation authors.
	card, err = Cardinality(context.Background(), g.DB, byID["DQ1"])
	if err != nil {
		t.Fatal(err)
	}
	if card < 20 {
		t.Errorf("DQ1 cardinality=%d want ≥20", card)
	}
	// DQ2: the 30 prolific researchers dominate.
	card, err = Cardinality(context.Background(), g.DB, byID["DQ2"])
	if err != nil {
		t.Fatal(err)
	}
	if card < 10 {
		t.Errorf("DQ2 cardinality=%d", card)
	}
}

func TestAdultBenchmarks(t *testing.T) {
	g := datagen.GenerateAdult(datagen.AdultConfig{Seed: 5, NumRows: 2000, ScaleFactor: 1})
	bs := AdultBenchmarks(context.Background(), g, 42)
	if len(bs) != 20 {
		t.Fatalf("benchmarks=%d want 20", len(bs))
	}
	for _, b := range bs {
		if b.NumSelections < 2 {
			t.Errorf("%s: only %d predicates", b.ID, b.NumSelections)
		}
		card, err := Cardinality(context.Background(), g.DB, b)
		if err != nil {
			t.Fatal(err)
		}
		if card < 5 {
			t.Errorf("%s: cardinality=%d below sampling floor", b.ID, card)
		}
	}
	// Determinism.
	again := AdultBenchmarks(context.Background(), g, 42)
	for i := range bs {
		if bs[i].NumSelections != again[i].NumSelections {
			t.Fatal("benchmark generation not deterministic")
		}
	}
}

func TestGroundTruthMatchesCardinality(t *testing.T) {
	g := tinyIMDb()
	for _, b := range IMDbBenchmarks(g)[:4] {
		card, err := Cardinality(context.Background(), g.DB, b)
		if err != nil {
			t.Fatal(err)
		}
		truth, err := GroundTruth(g.DB, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(truth) != card {
			t.Errorf("%s: truth=%d card=%d", b.ID, len(truth), card)
		}
	}
}

func TestFunnyActorsCaseStudy(t *testing.T) {
	g := tinyIMDb()
	cs := FunnyActors(g, 99)
	if len(cs.List) < 5 {
		t.Fatalf("list too small: %d", len(cs.List))
	}
	if !cs.NormalizeAssociation {
		t.Error("funny actors must use normalized association (Fig 13a)")
	}
	// The mask must contain every list member (lists only cite popular
	// entities).
	masked := cs.ApplyMask(cs.List)
	if len(masked) != len(cs.List) {
		t.Errorf("mask drops %d list members", len(cs.List)-len(masked))
	}
}

func TestSciFiCaseStudy(t *testing.T) {
	g := tinyIMDb()
	cs := SciFi2000s(g, 99)
	if len(cs.List) < 10 {
		t.Fatalf("list too small: %d (scifi movies planted: %d)", len(cs.List), len(g.SciFi2000s))
	}
}

func TestProlificCaseStudy(t *testing.T) {
	g := tinyDBLP()
	cs := ProlificResearchers(g, 99)
	if len(cs.List) < 15 {
		t.Fatalf("list too small: %d", len(cs.List))
	}
	masked := cs.ApplyMask(cs.List)
	if len(masked) < len(cs.List)*8/10 {
		t.Errorf("mask drops too many prolific researchers: %d of %d", len(masked), len(cs.List))
	}
}

func TestCaseStudyDeterminism(t *testing.T) {
	g := tinyIMDb()
	a := FunnyActors(g, 7)
	b := FunnyActors(g, 7)
	if len(a.List) != len(b.List) {
		t.Fatal("case study not deterministic")
	}
	for i := range a.List {
		if a.List[i] != b.List[i] {
			t.Fatal("case study list differs")
		}
	}
}
