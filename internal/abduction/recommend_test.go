package abduction

import (
	"context"
	"testing"

	"squid/internal/trace"
)

func TestRecommendExamples(t *testing.T) {
	a := actorsDB(t, 200, 60, 23)
	info := a.Entity("person")
	examples := []int{0, 3, 7}
	res, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, examples, DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	recs := RecommendExamples(res, 5)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	if len(recs) > 5 {
		t.Fatalf("too many recommendations: %d", len(recs))
	}
	// Recommendations must come from the current output and not repeat
	// examples.
	outSet := map[string]bool{}
	for _, v := range res.OutputValues() {
		outSet[v] = true
	}
	exSet := map[string]bool{}
	col := info.Rel().Column("name")
	for _, r := range examples {
		exSet[col.Str(r)] = true
	}
	for _, rec := range recs {
		if !outSet[rec] {
			t.Errorf("recommendation %q not in abduced output", rec)
		}
		if exSet[rec] {
			t.Errorf("recommendation %q repeats an example", rec)
		}
	}
}

func TestRecommendExamplesDegenerate(t *testing.T) {
	if got := RecommendExamples(nil, 3); got != nil {
		t.Error("nil result must recommend nothing")
	}
	a := actorsDB(t, 100, 40, 29)
	info := a.Entity("person")
	res, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, []int{0, 1}, DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if got := RecommendExamples(res, 0); got != nil {
		t.Error("k=0 must recommend nothing")
	}
	// k larger than the candidate pool is fine.
	recs := RecommendExamples(res, 10000)
	if len(recs) > info.NumRows {
		t.Error("more recommendations than entities")
	}
}

func TestBorderlineWeight(t *testing.T) {
	tie := FilterDecision{Include: 0.1, Exclude: 0.1}
	if got := borderline(tie); got != 1 {
		t.Errorf("tie weight=%v want 1", got)
	}
	lopsided := FilterDecision{Include: 0.5, Exclude: 1e-10}
	if got := borderline(lopsided); got > 0.05 {
		t.Errorf("lopsided weight=%v want near 0", got)
	}
	pruned := FilterDecision{Include: 0, Exclude: 0.3}
	if got := borderline(pruned); got != 0 {
		t.Errorf("pruned filter weight=%v want 0", got)
	}
}

// TestRecommendationPrunesCandidates simulates the interactive loop: the
// user confirms a recommended example, and the candidate filter count
// must not grow (confirming diversity-seeking examples prunes filters).
func TestRecommendationPrunesCandidates(t *testing.T) {
	a := actorsDB(t, 200, 60, 31)
	info := a.Entity("person")
	examples := []int{0, 3}
	res, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, examples, DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Decisions)
	recs := RecommendExamples(res, 1)
	if len(recs) == 0 {
		t.Skip("no recommendation available in fixture")
	}
	// Resolve the recommended value back to its row.
	col := info.Rel().Column("name")
	recRow := -1
	for row := 0; row < info.NumRows; row++ {
		if col.Str(row) == recs[0] {
			recRow = row
			break
		}
	}
	if recRow < 0 {
		t.Fatal("recommended value not resolvable")
	}
	res2, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, append(examples, recRow), DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Decisions) > before {
		t.Errorf("confirming a diversity example grew the candidate set: %d -> %d", before, len(res2.Decisions))
	}
}
