package abduction

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"squid/internal/trace"
)

// TestAbduceDecisionArithmetic property-checks the Equation 5 decision
// on synthetic decision inputs: for any selectivity ψ ∈ (0,1), prior
// ρ ∈ (0,1), and example count, the include/exclude scores follow the
// closed forms and the decision matches their comparison.
func TestAbduceDecisionArithmetic(t *testing.T) {
	a := fig6DB(t)
	info := a.Entity("person")
	gender := info.BasicByAttr("gender")
	rng := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		params := DefaultParams()
		params.Rho = 0.01 + 0.98*r.Float64()
		numExamples := 1 + r.Intn(20)
		// Use a real filter so ψ comes from the αDB; gender=Male has
		// ψ=0.5 on the Fig 6 fixture.
		ctx := Context{
			Filter:      &Filter{Kind: BasicCategorical, Basic: gender, Values: []string{"Male"}},
			NumExamples: numExamples,
		}
		decisions, selected, err := abduceCtx(context.Background(), []Context{ctx}, params, trace.Span{})
		if err != nil {
			return false
		}
		d := decisions[0]
		wantInclude := params.Rho // δ=α=λ=1 for this filter
		wantExclude := (1 - params.Rho) * math.Pow(0.5, float64(numExamples))
		if math.Abs(d.Include-wantInclude) > 1e-12 || math.Abs(d.Exclude-wantExclude) > 1e-12 {
			return false
		}
		wantIncluded := wantInclude > wantExclude
		if d.Included != wantIncluded {
			return false
		}
		return (len(selected) == 1) == wantIncluded
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestSkewnessInvariants property-checks Appendix B's skewness: shifting
// a distribution leaves skewness unchanged; mirroring negates it.
func TestSkewnessInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Intn(50))
		}
		s1, ok1 := skewness(vals)
		shifted := make([]float64, n)
		mirrored := make([]float64, n)
		for i, v := range vals {
			shifted[i] = v + 1000
			mirrored[i] = -v
		}
		s2, ok2 := skewness(shifted)
		s3, ok3 := skewness(mirrored)
		if ok1 != ok2 || ok1 != ok3 {
			return false
		}
		if !ok1 {
			return true // degenerate (zero variance) stays degenerate
		}
		return math.Abs(s1-s2) < 1e-6 && math.Abs(s1+s3) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestIntersectRowsSubsetProperty: adding filters can only shrink the
// output (conjunction monotonicity, Lemma 3.1's flip side).
func TestIntersectRowsSubsetProperty(t *testing.T) {
	a := actorsDB(t, 150, 60, 47)
	info := a.Entity("person")
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		rows := make([]int, 0, n)
		seen := map[int]bool{}
		for len(rows) < n {
			r := rng.Intn(info.NumRows)
			if !seen[r] {
				seen[r] = true
				rows = append(rows, r)
			}
		}
		contexts := DiscoverContexts(info, rows, DefaultParams())
		if len(contexts) < 2 {
			continue
		}
		var filters []*Filter
		for _, c := range contexts {
			filters = append(filters, c.Filter)
		}
		prev := IntersectRows(info, filters[:1])
		for k := 2; k <= len(filters); k++ {
			cur := IntersectRows(info, filters[:k])
			if len(cur) > len(prev) {
				t.Fatalf("trial %d: adding filter %d grew output %d -> %d", trial, k, len(prev), len(cur))
			}
			// Subset check.
			inPrev := map[int]bool{}
			for _, r := range prev {
				inPrev[r] = true
			}
			for _, r := range cur {
				if !inPrev[r] {
					t.Fatalf("trial %d: output not monotone subset", trial)
				}
			}
			prev = cur
		}
	}
}

// TestDiscoverContextsDeterministic: context discovery must be a pure
// function of (entity, example rows, params).
func TestDiscoverContextsDeterministic(t *testing.T) {
	a := actorsDB(t, 120, 50, 53)
	info := a.Entity("person")
	rows := []int{2, 5, 8}
	c1 := DiscoverContexts(info, rows, DefaultParams())
	c2 := DiscoverContexts(info, rows, DefaultParams())
	if len(c1) != len(c2) {
		t.Fatalf("non-deterministic context count: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].Filter.String() != c2[i].Filter.String() {
			t.Fatalf("context %d differs: %v vs %v", i, c1[i].Filter, c2[i].Filter)
		}
	}
}

// TestExampleOrderInvariance: the abduced filter set must not depend on
// the order the examples are given in.
func TestExampleOrderInvariance(t *testing.T) {
	a := actorsDB(t, 120, 50, 59)
	info := a.Entity("person")
	rows := []int{1, 4, 9, 13}
	perm := []int{13, 1, 9, 4}
	r1, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, rows, DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, perm, DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Filters) != len(r2.Filters) {
		t.Fatalf("filter count depends on example order: %d vs %d", len(r1.Filters), len(r2.Filters))
	}
	s1 := map[string]bool{}
	for _, f := range r1.Filters {
		s1[f.String()] = true
	}
	for _, f := range r2.Filters {
		if !s1[f.String()] {
			t.Errorf("filter %v only present under one ordering", f)
		}
	}
	if len(r1.OutputRows) != len(r2.OutputRows) {
		t.Error("output depends on example order")
	}
}
