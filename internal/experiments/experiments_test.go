package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// suite is shared across tests in this package (datasets are cached).
var testSuite = NewSuite(TestScale())

func TestFig9a(t *testing.T) {
	rows := testSuite.Fig9a(context.Background())
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	byDataset := map[string][]Fig9aRow{}
	for _, r := range rows {
		if r.MeanTime < 0 {
			t.Errorf("negative time at %+v", r)
		}
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	if len(byDataset["IMDb"]) == 0 || len(byDataset["DBLP"]) == 0 {
		t.Errorf("missing dataset series: %v", byDataset)
	}
	var buf bytes.Buffer
	PrintFig9a(&buf, rows)
	if !strings.Contains(buf.String(), "Fig 9(a)") {
		t.Error("printer output wrong")
	}
}

func TestFig10AccuracyImproves(t *testing.T) {
	rows := testSuite.Fig10(context.Background())
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// Aggregate: mean f-score at the smallest vs largest example size
	// must not degrade (the paper's headline trend).
	bySize := map[int][]float64{}
	for _, r := range rows {
		bySize[r.NumExamples] = append(bySize[r.NumExamples], r.PRF.FScore)
	}
	sizes := testSuite.Scale.ExampleSizes
	small, large := mean(bySize[sizes[0]]), mean(bySize[sizes[len(sizes)-1]])
	t.Logf("mean f-score: |E|=%d → %.3f, |E|=%d → %.3f", sizes[0], small, sizes[len(sizes)-1], large)
	if large+0.05 < small {
		t.Errorf("accuracy degraded with more examples: %.3f -> %.3f", small, large)
	}
	// Overall accuracy should be meaningful (not all zeros).
	if large < 0.3 {
		t.Errorf("large-sample f-score too low: %.3f", large)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFig11(t *testing.T) {
	rows := testSuite.Fig11(context.Background())
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.ActualTime <= 0 || r.AbducedTime <= 0 {
			t.Errorf("%s/%s: non-positive runtimes %v %v", r.Dataset, r.QueryID, r.ActualTime, r.AbducedTime)
		}
	}
}

func TestFig12DisambiguationHelps(t *testing.T) {
	rows := testSuite.Fig12(context.Background())
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	improvedSomewhere := false
	for _, r := range rows {
		if r.WithDA > r.WithoutDA+0.01 {
			improvedSomewhere = true
		}
		// The paper: disambiguation never hurts (tolerance for sampling
		// noise across runs).
		if r.WithDA+0.10 < r.WithoutDA {
			t.Errorf("%s |E|=%d: disambiguation hurt: %.3f vs %.3f", r.Intent, r.NumExamples, r.WithDA, r.WithoutDA)
		}
	}
	if !improvedSomewhere {
		t.Error("disambiguation never improved accuracy on planted-ambiguity intents")
	}
}

func TestFig13CaseStudies(t *testing.T) {
	rows := testSuite.Fig13(context.Background())
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	studies := map[string][]Fig13Row{}
	for _, r := range rows {
		studies[r.Study] = append(studies[r.Study], r)
	}
	if len(studies) != 3 {
		t.Fatalf("studies=%d want 3 (%v)", len(studies), studies)
	}
	// Recall at the largest example size should beat recall at the
	// smallest for at least two studies (the Fig 13 narrative).
	improved := 0
	for name, rs := range studies {
		first, last := rs[0], rs[len(rs)-1]
		t.Logf("%s: recall %.3f -> %.3f", name, first.PRF.Recall, last.PRF.Recall)
		if last.PRF.Recall >= first.PRF.Recall {
			improved++
		}
	}
	if improved < 2 {
		t.Errorf("recall failed to improve in %d studies", 3-improved)
	}
}

func TestFig14AdultQRE(t *testing.T) {
	rows := testSuite.Fig14(context.Background())
	if len(rows) != 20 {
		t.Fatalf("rows=%d want 20", len(rows))
	}
	var squidF, talosF, squidPreds, talosPreds, actualPreds float64
	for _, r := range rows {
		squidF += r.SquidF
		talosF += r.TalosF
		squidPreds += float64(r.SquidPreds)
		talosPreds += float64(r.TalosPreds)
		actualPreds += float64(r.ActualPreds)
	}
	squidF /= 20
	talosF /= 20
	t.Logf("Adult QRE: actual preds=%.1f; SQuID f=%.3f preds=%.1f; TALOS f=%.3f preds=%.1f",
		actualPreds/20, squidF, squidPreds/20, talosF, talosPreds/20)
	// Both systems should be highly accurate on Adult (paper: perfect).
	if squidF < 0.85 {
		t.Errorf("SQuID Adult QRE f-score=%.3f", squidF)
	}
	if talosF < 0.80 {
		t.Errorf("TALOS Adult QRE f-score=%.3f", talosF)
	}
	// SQuID queries must stay close to the original query size (the
	// Fig 14 claim). TALOS predicate counts depend on how separable the
	// data is; the synthetic census is smoother than the real one, so
	// the paper's >100-predicate blowups need not manifest here.
	if squidPreds > actualPreds+20*7 {
		t.Errorf("SQuID predicates (%.1f avg) far above actual (%.1f avg)", squidPreds/20, actualPreds/20)
	}
	// Rows must be sorted by cardinality (the Fig 14 x-axis).
	for i := 1; i < len(rows); i++ {
		if rows[i].Cardinality < rows[i-1].Cardinality {
			t.Error("rows not sorted by input cardinality")
		}
	}
}

func TestFig16b(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling experiment")
	}
	rows := testSuite.Fig16b(context.Background())
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	// PU time must grow with scale; SQuID should grow much slower.
	first, last := rows[0], rows[len(rows)-1]
	if last.PUTime <= first.PUTime {
		t.Errorf("PU time did not grow with scale: %v -> %v", first.PUTime, last.PUTime)
	}
	puGrowth := float64(last.PUTime) / float64(first.PUTime+1)
	squidGrowth := float64(last.SquidTime) / float64(first.SquidTime+1)
	t.Logf("growth over 10x data: PU %.1fx, SQuID %.1fx", puGrowth, squidGrowth)
	if squidGrowth > puGrowth*2 {
		t.Errorf("SQuID scaling (%.1fx) should not be far worse than PU (%.1fx)", squidGrowth, puGrowth)
	}
}

func TestFig18StatsAndTables(t *testing.T) {
	stats := testSuite.Fig18()
	if len(stats) != 6 {
		t.Fatalf("stats blocks=%d want 6 (IMDb, sm, bs, bd, DBLP, Adult)", len(stats))
	}
	// bs and bd must be larger than base IMDb; bd ≥ bs.
	base, bs, bd := stats[0], stats[2], stats[3]
	if bs.DBBytes <= base.DBBytes || bd.DBBytes < bs.DBBytes {
		t.Errorf("variant sizes wrong: base=%d bs=%d bd=%d", base.DBBytes, bs.DBBytes, bd.DBBytes)
	}

	for _, tbl := range []BenchmarkTable{testSuite.Fig19(context.Background()), testSuite.Fig20(context.Background()), testSuite.Fig22(context.Background())} {
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", tbl.Dataset)
		}
		var buf bytes.Buffer
		PrintBenchmarkTable(&buf, tbl)
		if !strings.Contains(buf.String(), tbl.Rows[0].ID) {
			t.Errorf("%s: printer broken", tbl.Dataset)
		}
	}
}

func TestSweepsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("parameter sweeps")
	}
	f25 := testSuite.Fig25(context.Background())
	if len(f25) == 0 {
		t.Fatal("tauA sweep empty")
	}
	f26 := testSuite.Fig26(context.Background())
	if len(f26) == 0 {
		t.Fatal("tauS sweep empty")
	}
	settings := map[string]bool{}
	for _, r := range f26 {
		settings[r.Setting] = true
	}
	for _, want := range []string{"N/A", "0", "2", "4"} {
		if !settings[want] {
			t.Errorf("tauS sweep missing setting %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation studies")
	}
	rows := testSuite.Ablations(context.Background())
	if len(rows) != 6 {
		t.Fatalf("ablation rows=%d want 6", len(rows))
	}
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Ablation+"/"+r.Setting] = r.FScore
	}
	// Depth 2 must beat depth 1 on the deep-derived intent.
	if byKey["fact-depth/depth=2"] < byKey["fact-depth/depth=1"] {
		t.Errorf("depth-2 (%v) should beat depth-1 (%v) on funny actors",
			byKey["fact-depth/depth=2"], byKey["fact-depth/depth=1"])
	}
	// Disjunction must help on the two-value intent.
	if byKey["disjunction/max=3"] < byKey["disjunction/max=0"] {
		t.Errorf("disjunction (%v) should beat none (%v) on the OR intent",
			byKey["disjunction/max=3"], byKey["disjunction/max=0"])
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"ablations",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b",
		"fig16a", "fig16b", "fig18", "fig19", "fig20", "fig22", "fig23",
		"fig24", "fig25", "fig26", "fig9a", "fig9b",
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries want %d: %v", len(ids), len(want), ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("id[%d]=%s want %s", i, ids[i], want[i])
		}
	}
	if _, ok := Lookup("fig10"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup found a ghost")
	}
}
