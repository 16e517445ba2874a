package abduction

import (
	"context"
	"math/rand"
	"testing"

	"squid/internal/adb"

	"squid/internal/trace"
)

// TestTheorem1OptimalityBruteForce verifies Theorem 1: the filter subset
// chosen by Algorithm 1 attains the maximum of the Equation 5 posterior
// over all 2^|Φ| subsets. Run on many randomized example sets drawn from
// the actors fixture.
func TestTheorem1OptimalityBruteForce(t *testing.T) {
	a := actorsDB(t, 120, 60, 11)
	info := a.Entity("person")
	rng := rand.New(rand.NewSource(77))
	params := DefaultParams()

	for trial := 0; trial < 40; trial++ {
		// Random example set of 2-5 rows.
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
		contexts := DiscoverContexts(info, rows, params)
		if len(contexts) == 0 {
			continue
		}
		// Keep the subset-enumeration tractable.
		if len(contexts) > 14 {
			contexts = contexts[:14]
		}
		decisions, selected, err := abduceCtx(context.Background(), contexts, params, trace.Span{})
		if err != nil {
			t.Fatal(err)
		}
		chosen := make(map[*Filter]bool, len(selected))
		for _, f := range selected {
			chosen[f] = true
		}
		algoScore := LogPosteriorScore(decisions, chosen)

		// Brute force over all subsets.
		best := algoScore
		filters := make([]*Filter, len(decisions))
		for i, d := range decisions {
			filters[i] = d.Filter
		}
		for mask := 0; mask < 1<<len(filters); mask++ {
			sub := make(map[*Filter]bool)
			for i := range filters {
				if mask&(1<<i) != 0 {
					sub[filters[i]] = true
				}
			}
			if s := LogPosteriorScore(decisions, sub); s > best {
				best = s
			}
		}
		if best > algoScore+1e-9 {
			t.Fatalf("trial %d: Algorithm 1 suboptimal: algo=%v best=%v (|Φ|=%d)", trial, algoScore, best, len(filters))
		}
	}
}

// TestAbduceExample13 reproduces Example 1.3's shape on the synthetic
// actors fixture: examples that are all comedians lead SQuID to select
// the high-strength Comedy derived filter while dropping common basic
// properties like gender.
func TestAbduceExample13(t *testing.T) {
	a := actorsDB(t, 200, 60, 13)
	info := a.Entity("person")
	// First 20 persons are comedians; sample 5 of them.
	examples := []int{0, 3, 7, 11, 15}
	res, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, examples, DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}

	var comedyFilter *Filter
	for _, f := range res.Filters {
		if f.Kind == Derived && f.Attr() == "movie:genre" && f.Value() == "Comedy" {
			comedyFilter = f
		}
		if f.Kind == BasicCategorical && f.Attr() == "gender" {
			t.Errorf("coincidental gender filter selected: %v", f)
		}
	}
	if comedyFilter == nil {
		t.Fatalf("comedy derived filter not selected; got %v", res.Filters)
	}
	if comedyFilter.Theta < DefaultParams().TauA {
		t.Errorf("selected θ=%d below τa", comedyFilter.Theta)
	}
	// The output must contain all examples (E ⊆ Q(D), Definition 2.1).
	out := map[int]bool{}
	for _, r := range res.OutputRows {
		out[r] = true
	}
	for _, ex := range examples {
		if !out[ex] {
			t.Errorf("example row %d missing from abduced output", ex)
		}
	}
	// And mostly comedians (rows < 20).
	nonComedians := 0
	for _, r := range res.OutputRows {
		if r >= 20 {
			nonComedians++
		}
	}
	if nonComedians > len(res.OutputRows)/2 {
		t.Errorf("abduced query output dominated by non-comedians: %d of %d", nonComedians, len(res.OutputRows))
	}
}

// TestDiscoverEndToEnd runs name-based discovery through the inverted
// index on the Fig 1 database.
func TestDiscoverEndToEnd(t *testing.T) {
	a := fig1DB(t)
	params := DefaultParams()
	params.Rho = 0.2
	results, err := DiscoverCtx(context.Background(), a.Snapshot(), []string{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"}, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Base.Entity != "academics" || res.Base.Attr != "name" {
		t.Fatalf("base query wrong: %+v", res.Base)
	}
	found := false
	for _, f := range res.Filters {
		if f.Attr() == "interest" && f.Value() == "data management" {
			found = true
		}
	}
	if !found {
		t.Errorf("data management filter not selected: %v", res.Filters)
	}
	vals := res.OutputValues()
	if len(vals) != 3 {
		t.Errorf("output=%v want the 3 data management researchers", vals)
	}
}

func TestDiscoverErrors(t *testing.T) {
	a := fig1DB(t)
	if _, err := DiscoverCtx(context.Background(), a.Snapshot(), nil, DefaultParams(), nil); err == nil {
		t.Error("no examples must error")
	}
	if _, err := DiscoverCtx(context.Background(), a.Snapshot(), []string{"No Such Person"}, DefaultParams(), nil); err == nil {
		t.Error("unmatched example must error")
	}
	// Values that exist but only in a non-entity column.
	if _, err := DiscoverCtx(context.Background(), a.Snapshot(), []string{"algorithms", "data mining"}, DefaultParams(), nil); err == nil {
		t.Error("matches outside entity relations must error")
	}
}

// TestDiscoverUsesResolver verifies the resolver hook receives ambiguous
// candidates.
func TestDiscoverUsesResolver(t *testing.T) {
	a := fig1DB(t)
	called := false
	resolver := func(info *adb.EntityInfo, candidates [][]int, params Params) []int {
		called = true
		out := make([]int, len(candidates))
		for i, c := range candidates {
			out[i] = c[0]
		}
		return out
	}
	// No ambiguity in this fixture: resolver must NOT be called.
	if _, err := DiscoverCtx(context.Background(), a.Snapshot(), []string{"Dan Suciu", "Sam Madden"}, DefaultParams(), resolver); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("resolver must only run on ambiguous matches")
	}
}

// TestQREParamsKeepMoreFilters checks the §7.5 optimistic preset: with
// the full query output as examples, QRE parameters retain filters the
// default (skeptical) parameters would drop.
func TestQREParamsKeepMoreFilters(t *testing.T) {
	a := actorsDB(t, 150, 60, 17)
	info := a.Entity("person")
	examples := []int{0, 1, 2, 4, 5}
	def, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, examples, DefaultParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	qre, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, examples, QREParams(), trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qre.Filters) < len(def.Filters) {
		t.Errorf("QRE params must keep at least as many filters: %d < %d", len(qre.Filters), len(def.Filters))
	}
}

// TestMoreExamplesNeverAddCoincidentalFilters is the Fig 10 monotonic
// trend: as examples grow, the exclude term ψ^|E| shrinks, so every
// filter included at |E| examples stays included at |E|+k when its
// selectivity and θ stay the same family-wise — here we simply verify
// precision against the planted comedian intent improves or holds.
func TestMoreExamplesNeverAddCoincidentalFilters(t *testing.T) {
	a := actorsDB(t, 200, 60, 19)
	info := a.Entity("person")
	truth := make(map[int]bool) // planted intent: the 20 comedians
	for i := 0; i < 20; i++ {
		truth[i] = true
	}
	precisionAt := func(examples []int) float64 {
		res, err := abduceForEntityCtx(context.Background(), info, BaseQuery{"person", "name"}, examples, DefaultParams(), trace.Span{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.OutputRows) == 0 {
			return 0
		}
		hits := 0
		for _, r := range res.OutputRows {
			if truth[r] {
				hits++
			}
		}
		return float64(hits) / float64(len(res.OutputRows))
	}
	p3 := precisionAt([]int{0, 3, 7})
	p8 := precisionAt([]int{0, 3, 7, 11, 15, 2, 9, 18})
	if p8+1e-9 < p3 {
		t.Errorf("precision degraded with more examples: %v -> %v", p3, p8)
	}
	if p8 < 0.5 {
		t.Errorf("precision with 8 examples too low: %v", p8)
	}
}
