package pulearn

import (
	"context"
	"math/rand"
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

func TestFeaturize(t *testing.T) {
	_, alpha := buildAdult(t, 300)
	X, feats := Featurize(alpha.Entity("adult"))
	if len(X) != 300 {
		t.Fatalf("rows=%d", len(X))
	}
	if len(feats) < 10 {
		t.Errorf("features=%d, expected the census attributes", len(feats))
	}
	hasCat, hasNum := false, false
	for _, f := range feats {
		if f.Categorical {
			hasCat = true
		} else {
			hasNum = true
		}
	}
	if !hasCat || !hasNum {
		t.Error("both categorical and numeric features expected")
	}
}

// positiveRowsOf resolves ground-truth output values back to entity rows.
func positiveRowsOf(alpha *adb.AlphaDB, truth []string) []int {
	info := alpha.Entity("adult")
	set := map[string]bool{}
	for _, v := range truth {
		set[v] = true
	}
	col := info.Rel().Column("name")
	var rows []int
	for i := 0; i < info.NumRows; i++ {
		if set[col.Str(i)] {
			rows = append(rows, i)
		}
	}
	return rows
}

// TestFig16aShape reproduces the Fig 16(a) trend: with a large fraction
// of the positives labeled, PU-learning approaches the truth; with a
// small fraction, recall collapses (it favors precision).
func TestFig16aShape(t *testing.T) {
	g, alpha := buildAdult(t, 1500)
	info := alpha.Entity("adult")
	X, feats := Featurize(info)
	nameCol := info.Rel().Column("name")

	bench := benchqueries.AdultBenchmarks(context.Background(), g, 42)
	// Use the largest-output query for stable statistics.
	var best benchqueries.Benchmark
	bestCard := 0
	for _, b := range bench {
		c, err := benchqueries.Cardinality(context.Background(), g.DB, b)
		if err != nil {
			t.Fatal(err)
		}
		if c > bestCard {
			bestCard, best = c, b
		}
	}
	truth, err := benchqueries.GroundTruth(g.DB, best)
	if err != nil {
		t.Fatal(err)
	}
	posRows := positiveRowsOf(alpha, truth)
	if len(posRows) < 30 {
		t.Skip("fixture too small")
	}

	score := func(fraction float64) metrics.PRF {
		rng := rand.New(rand.NewSource(11))
		k := int(fraction * float64(len(posRows)))
		if k < 2 {
			k = 2
		}
		labeled := make([]int, 0, k)
		for _, i := range rng.Perm(len(posRows))[:k] {
			labeled = append(labeled, posRows[i])
		}
		res := Learn(X, feats, labeled, DefaultConfig(DecisionTree))
		var got []string
		for _, r := range res.PositiveRows {
			got = append(got, nameCol.Str(r))
		}
		return metrics.Compare(got, truth)
	}

	low := score(0.1)
	high := score(0.9)
	t.Logf("PU(DT) fraction=0.1: %+v", low)
	t.Logf("PU(DT) fraction=0.9: %+v", high)
	if high.FScore < low.FScore {
		t.Errorf("more labeled positives must not hurt: %.3f -> %.3f", low.FScore, high.FScore)
	}
	if high.FScore < 0.5 {
		t.Errorf("with 90%% positives labeled, f-score too low: %.3f", high.FScore)
	}
}

func TestEstimatorsBothRun(t *testing.T) {
	_, alpha := buildAdult(t, 600)
	info := alpha.Entity("adult")
	X, feats := Featurize(info)
	// Intent: Male rows (easily learnable).
	var pos []int
	col := info.Rel().Column("sex")
	for i := 0; i < info.NumRows; i++ {
		if col.Str(i) == "Male" && i%2 == 0 { // half the positives labeled
			pos = append(pos, i)
		}
	}
	for _, est := range []Estimator{DecisionTree, RandomForest} {
		res := Learn(X, feats, pos, DefaultConfig(est))
		if len(res.PositiveRows) == 0 {
			t.Errorf("estimator %d returned nothing", est)
		}
		if res.C <= 0 || res.C > 1 {
			t.Errorf("estimator %d: c=%v out of range", est, res.C)
		}
		if res.TrainTime <= 0 {
			t.Errorf("estimator %d: no training time recorded", est)
		}
	}
}

func TestLearnDeterminism(t *testing.T) {
	_, alpha := buildAdult(t, 400)
	X, feats := Featurize(alpha.Entity("adult"))
	pos := []int{1, 5, 9, 13, 17, 21, 25, 29, 33, 37}
	a := Learn(X, feats, pos, DefaultConfig(DecisionTree))
	b := Learn(X, feats, pos, DefaultConfig(DecisionTree))
	if len(a.PositiveRows) != len(b.PositiveRows) {
		t.Fatal("PU learning not deterministic")
	}
	for i := range a.PositiveRows {
		if a.PositiveRows[i] != b.PositiveRows[i] {
			t.Fatal("PU learning rows differ")
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	_, alpha := buildAdult(t, 100)
	X, feats := Featurize(alpha.Entity("adult"))
	// A single positive example must not panic.
	res := Learn(X, feats, []int{3}, DefaultConfig(DecisionTree))
	if res == nil {
		t.Fatal("nil result")
	}
}
