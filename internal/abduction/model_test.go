package abduction

import (
	"context"
	"math"
	"testing"

	"squid/internal/trace"
)

func TestSkewness(t *testing.T) {
	// Symmetric sample: skewness ~ 0.
	if s, ok := skewness([]float64{1, 2, 3, 4, 5}); !ok || math.Abs(s) > 1e-9 {
		t.Errorf("symmetric skewness=%v ok=%v", s, ok)
	}
	// Right-skewed, heavy-tailed sample: skewness > 0 (Case A shape).
	if s, ok := skewness([]float64{1, 1, 1, 2, 30}); !ok || s <= 1 {
		t.Errorf("right-skewed skewness=%v ok=%v", s, ok)
	}
	// Undefined cases.
	if _, ok := skewness([]float64{1, 2}); ok {
		t.Error("n<3 must be undefined")
	}
	if _, ok := skewness([]float64{3, 3, 3, 3}); ok {
		t.Error("zero variance must be undefined")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-9 {
		t.Errorf("mean=%v", mean)
	}
	if math.Abs(std-2.13808993) > 1e-6 {
		t.Errorf("std=%v", std)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Error("empty sample")
	}
	if _, s := meanStd([]float64{5}); s != 0 {
		t.Error("single sample std must be 0")
	}
}

// mkDerivedFilters fabricates a family of derived filters over one
// synthetic property with the given strengths, for λ tests (Fig 8).
func mkDerivedFilters(t *testing.T, strengths []int) []*Filter {
	t.Helper()
	// A minimal αDB with one derived property to attach filters to.
	a := actorsDB(t, 30, 20, 9)
	prop := a.Entity("person").DerivedByAttr("movie:genre")
	if prop == nil {
		t.Fatal("fixture missing derived property")
	}
	names := []string{"Comedy", "SciFi", "Drama", "Action", "Thriller", "Fantasy", "Crime"}
	fs := make([]*Filter, len(strengths))
	for i, s := range strengths {
		fs[i] = &Filter{Kind: Derived, Derivd: prop, Values: []string{names[i%len(names)]}, Theta: s}
	}
	return fs
}

// TestFig8CaseA: strengths {30,25,3,2,1} are heavy-tailed (sample
// skewness ≈ 0.67 under the Appendix B formula); with τs below that and
// k=1, the top filter is an outlier with λ=1 while the weak tail gets
// λ=0 — the Case A intuition of Fig 8.
func TestFig8CaseA(t *testing.T) {
	params := DefaultParams()
	params.TauS = 0.5
	params.OutlierK = 1
	fs := mkDerivedFilters(t, []int{30, 25, 3, 2, 1})
	lambdas := lambdaImpacts(fs, params)
	if lambdas[0] != 1 {
		t.Errorf("λ(Comedy,30)=%v want 1", lambdas[0])
	}
	if lambdas[2] != 0 || lambdas[3] != 0 || lambdas[4] != 0 {
		t.Errorf("low filters must get λ=0: %v %v %v", lambdas[2], lambdas[3], lambdas[4])
	}
}

// TestFig8CaseB: strengths {12,10,10,9,9} are flat; no filter stands out,
// all get λ=0.
func TestFig8CaseB(t *testing.T) {
	fs := mkDerivedFilters(t, []int{12, 10, 10, 9, 9})
	lambdas := lambdaImpacts(fs, DefaultParams())
	for i := range fs {
		if lambdas[i] != 0 {
			t.Errorf("filter %d: λ=%v want 0 (flat family)", i, lambdas[i])
		}
	}
}

func TestLambdaSmallFamilyAllOutliers(t *testing.T) {
	// n < 3: skewness undefined, all elements treated as outliers.
	fs := mkDerivedFilters(t, []int{7, 3})
	lambdas := lambdaImpacts(fs, DefaultParams())
	if lambdas[0] != 1 || lambdas[1] != 1 {
		t.Errorf("small family must have λ=1: %v %v", lambdas[0], lambdas[1])
	}
}

// TestLambdaInterleavedFamilies: λ groups filters by family wherever
// they sit in the list. Case A's family interleaved with Case B's and
// with a basic filter decides as each family does alone.
func TestLambdaInterleavedFamilies(t *testing.T) {
	params := DefaultParams()
	params.TauS = 0.5
	params.OutlierK = 1
	caseA := mkDerivedFilters(t, []int{30, 25, 3, 2, 1})
	caseB := mkDerivedFilters(t, []int{12, 10, 10, 9, 9})
	degree := actorsDB(t, 30, 20, 9).Entity("person").DerivedByAttr("movie:count")
	if degree == nil {
		t.Fatal("fixture missing a second derived property")
	}
	for _, f := range caseB {
		f.Derivd = degree
	}
	basic := &Filter{Kind: BasicCategorical, Basic: fig6DB(t).Entity("person").BasicByAttr("gender"), Values: []string{"Male"}}
	var fs []*Filter
	for i := range caseA {
		fs = append(fs, caseA[i], caseB[i])
	}
	fs = append(fs, basic)
	got := lambdaImpacts(fs, params)
	wantA, wantB := lambdaImpacts(caseA, params), lambdaImpacts(caseB, params)
	for i := range caseA {
		if got[2*i] != wantA[i] || got[2*i+1] != wantB[i] {
			t.Errorf("member %d: λ %v and %v interleaved, %v and %v alone", i, got[2*i], got[2*i+1], wantA[i], wantB[i])
		}
	}
	if got[len(fs)-1] != 1 || wantA[0] != 1 || wantA[4] != 0 {
		t.Errorf("basic λ = %v, Case A alone %v", got[len(fs)-1], wantA)
	}
}

func TestLambdaBasicAlwaysOne(t *testing.T) {
	a := fig6DB(t)
	prop := a.Entity("person").BasicByAttr("gender")
	f := &Filter{Kind: BasicCategorical, Basic: prop, Values: []string{"Male"}}
	lambdas := lambdaImpacts([]*Filter{f}, DefaultParams())
	if lambdas[0] != 1 {
		t.Errorf("basic λ=%v", lambdas[0])
	}
}

func TestLambdaDisabled(t *testing.T) {
	params := DefaultParams()
	params.DisableOutlier = true
	fs := mkDerivedFilters(t, []int{12, 10, 10, 9, 9})
	lambdas := lambdaImpacts(fs, params)
	for i := range fs {
		if lambdas[i] != 1 {
			t.Error("τs=N/A must force λ=1")
		}
	}
}

func TestAlphaImpact(t *testing.T) {
	params := DefaultParams() // τa = 5
	fs := mkDerivedFilters(t, []int{4, 5})
	if alphaImpact(fs[0], params) != 0 {
		t.Error("θ=4 < τa=5 must be insignificant")
	}
	if alphaImpact(fs[1], params) != 1 {
		t.Error("θ=5 ≥ τa=5 must be significant")
	}
	a := fig6DB(t)
	basic := &Filter{Kind: BasicCategorical, Basic: a.Entity("person").BasicByAttr("gender"), Values: []string{"Male"}}
	if alphaImpact(basic, params) != 1 {
		t.Error("basic filters always have α=1")
	}
}

func TestDeltaImpact(t *testing.T) {
	p := DefaultParams() // η=0.5, γ=2
	if got := p.deltaImpact(0.3); got != 1 {
		t.Errorf("coverage below η must not be penalized: %v", got)
	}
	if got := p.deltaImpact(1.0); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("coverage 1.0 with γ=2: δ=%v want 0.25", got)
	}
	p.Gamma = 0
	if got := p.deltaImpact(1.0); got != 1 {
		t.Errorf("γ=0 disables the penalty: %v", got)
	}
}

// TestExample21Abduction reproduces Example 2.1: with two examples
// sharing interest = data management (ψ = 3/6 over the full academics
// table), the filter is included once enough examples are seen.
func TestExample21Abduction(t *testing.T) {
	a := fig1DB(t)
	info := a.Entity("academics")
	// Rows 1 and 3 are Dan Suciu and Sam Madden.
	contexts := DiscoverContexts(info, []int{1, 3}, DefaultParams())
	var dm *Context
	for i := range contexts {
		if contexts[i].Filter.Attr() == "interest" && contexts[i].Filter.Value() == "data management" {
			dm = &contexts[i]
		}
	}
	if dm == nil {
		t.Fatalf("data management context missing: %v", contexts)
	}
	if got := dm.Filter.Selectivity(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ψ=%v want 3/6", got)
	}
	// With ρ=0.1 and two examples: include=0.1, exclude=0.9·0.25=0.225 →
	// not yet included; with four examples exclude=0.9·0.0625≈0.056 →
	// included. This mirrors the paper's "more examples → more
	// confidence" behavior.
	_, selected, err := abduceCtx(context.Background(), contexts, DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if containsFilter(selected, dm.Filter) {
		t.Error("2 examples should not yet overcome ρ=0.1")
	}
	contexts4 := DiscoverContexts(info, []int{1, 3, 5}, DefaultParams())
	// 3 examples: exclude = 0.9·0.125 = 0.1125 > 0.1 still excluded;
	// use a slightly higher prior to include.
	params := DefaultParams()
	params.Rho = 0.2
	_, selected4, err := abduceCtx(context.Background(), contexts4, params, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range selected4 {
		if f.Attr() == "interest" && f.Value() == "data management" {
			found = true
		}
	}
	if !found {
		t.Errorf("interest filter not selected with 3 examples and ρ=0.2: %v", selected4)
	}
}

func containsFilter(fs []*Filter, f *Filter) bool {
	for _, g := range fs {
		if g == f {
			return true
		}
	}
	return false
}

// TestAbduceDecisionRule checks the include/exclude arithmetic of
// Algorithm 1 on a hand-computed case.
func TestAbduceDecisionRule(t *testing.T) {
	a := fig6DB(t)
	info := a.Entity("person")
	contexts := DiscoverContexts(info, []int{0, 1, 2}, DefaultParams()) // all males
	decisions, _, err := abduceCtx(context.Background(), contexts, DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decisions {
		if d.Filter.Attr() != "gender" {
			continue
		}
		// ψ(Male)=0.5, |E|=3: include=0.1, exclude=0.9·0.125=0.1125.
		if math.Abs(d.Include-0.1) > 1e-9 {
			t.Errorf("include=%v", d.Include)
		}
		if math.Abs(d.Exclude-0.1125) > 1e-9 {
			t.Errorf("exclude=%v", d.Exclude)
		}
		if d.Included {
			t.Error("gender filter must be excluded at |E|=3, ρ=0.1")
		}
	}
}

// TestTieDropsFilter checks the Occam's-razor tie rule (Appendix C).
func TestTieDropsFilter(t *testing.T) {
	a := fig6DB(t)
	info := a.Entity("person")
	contexts := DiscoverContexts(info, []int{0, 1, 2}, DefaultParams())
	var g *Context
	for i := range contexts {
		if contexts[i].Filter.Attr() == "gender" {
			g = &contexts[i]
		}
	}
	if g == nil {
		t.Fatal("no gender context")
	}
	// Solve ρ = (1−ρ)·ψ^|E| for ψ=0.5, |E|=3: ρ = 0.125/1.125 = 1/9.
	params := DefaultParams()
	params.Rho = 1.0 / 9.0
	decisions, selected, err := abduceCtx(context.Background(), []Context{*g}, params, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(decisions[0].Include-decisions[0].Exclude) > 1e-12 {
		t.Fatalf("expected tie: include=%v exclude=%v", decisions[0].Include, decisions[0].Exclude)
	}
	if len(selected) != 0 {
		t.Error("tie must drop the filter")
	}
}
