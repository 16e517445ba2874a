package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	one := []float64{7}
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ties := []float64{1, 1, 1, 1, 5}
	// Two modes, nothing between: the median must be a value somebody
	// observed, not the midpoint 50.5.
	bimodal := []float64{1, 1, 1, 100, 100, 100}
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"one sample p50", one, 0.5, 7},
		{"one sample p99", one, 0.99, 7},
		{"ten p50 is the fifth", ten, 0.5, 5},
		{"ten p90 is the ninth", ten, 0.9, 9},
		{"ten p91 is the tenth", ten, 0.91, 10},
		{"ten p99 is the max", ten, 0.99, 10},
		{"q=0 is the min", ten, 0, 1},
		{"q=1 is the max", ten, 1, 10},
		{"ties p50", ties, 0.5, 1},
		{"ties p80", ties, 0.8, 1},
		{"ties p81", ties, 0.81, 5},
		{"bimodal p50 is the low mode", bimodal, 0.5, 1},
		{"bimodal p51 is the high mode", bimodal, 0.51, 100},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: percentile(%v, %g) = %g, want %g", c.name, c.sorted, c.q, got, c.want)
		}
	}
}

func TestSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.99, 0},
		{1, 0.99, 0},
		{100, 0.99, 1},
		{1000, 0.99, 10},
		{1550, 0.99, 15},
		{3000, 0.99, 30},
		{999, 0.99, 9},
		{100, 0.5, 50},
	}
	for _, c := range cases {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  float64
	}{
		{0, 0.99, 0.5},
		{1, 0.99, 0.5},
		{19, 0.99, 0.5},   // 9 beyond the median: not even that is supported
		{21, 0.99, 0.5},   // 10 beyond the median
		{40, 0.99, 0.75},  // 10 beyond p75
		{100, 0.99, 0.9},  // 10 beyond p90, 5 beyond p95
		{200, 0.99, 0.95}, // 10 beyond p95, 2 beyond p99
		{999, 0.99, 0.95}, // 9 beyond p99
		{1000, 0.99, 0.99},
		{1550, 0.99, 0.99},
		{10000, 0.99, 0.99}, // the limit holds p99.9 back
		{10000, 1, 0.999},
		{1000, 0.9, 0.9},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, c.limit); got != c.want {
			t.Errorf("tailQuantile(%d, %g) = %g, want %g", c.n, c.limit, got, c.want)
		}
	}
}

func TestMinSamplesFor(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		got := minSamplesFor(c.q)
		if got != c.want {
			t.Errorf("minSamplesFor(%g) = %d, want %d", c.q, got, c.want)
		}
		if samplesBeyond(got, c.q) < minBeyond || samplesBeyond(got-1, c.q) >= minBeyond {
			t.Errorf("minSamplesFor(%g) = %d is not the smallest block with %d samples beyond", c.q, got, minBeyond)
		}
	}
}

func TestMedianOfRounds(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"no round", nil, 0},
		{"one round", []float64{3.5}, 3.5},
		{"two rounds", []float64{4, 2}, 3},
		{"odd", []float64{9, 1, 5}, 5},
		{"even", []float64{1, 2, 3, 10}, 2.5},
		{"ties", []float64{2, 2, 2, 2}, 2},
		{"one slow round does not move it", []float64{1, 1, 1, 1, 50}, 1},
		{"bimodal rounds", []float64{1, 1, 9, 9}, 5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("%s: median(%v) = %g, want %g", c.name, c.xs, got, c.want)
		}
		for i := range in {
			if in[i] != c.xs[i] {
				t.Errorf("%s: median reordered its input", c.name)
			}
		}
	}
}

// The expected cut points are what Python prints for
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		name       string
		xs         []float64
		q1, q2, q3 float64
	}{
		{"one round", []float64{4}, 4, 4, 4},
		{"two", []float64{1, 2}, 0.75, 1.5, 2.25},
		{"three", []float64{1, 2, 3}, 1, 2, 3},
		{"four", []float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{"ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{"ten unsorted", []float64{10, 3, 7, 1, 9, 2, 8, 4, 6, 5}, 2.75, 5.5, 8.25},
		{"ties", []float64{5, 5, 5, 5, 5}, 5, 5, 5},
		{"bimodal", []float64{1, 1, 1, 1, 1, 9, 9, 9, 9, 9}, 1, 5, 9},
		{"eleven", []float64{2, 4, 4, 5, 6, 7, 8, 9, 10, 12, 40}, 4, 7, 10},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("%s: quartiles(%v) = %g %g %g, want %g %g %g", c.name, c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestIQRShare(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"one round has no spread", []float64{4}, 0},
		{"ties", []float64{5, 5, 5, 5, 5}, 0},
		{"ten", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1},
		{"bimodal", []float64{1, 1, 1, 1, 1, 9, 9, 9, 9, 9}, 1.6},
		{"zero median", []float64{-1, 0, 1}, 0},
		{"one outlier among ten", []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 900}, 0},
	}
	for _, c := range cases {
		if got := iqrShare(c.xs); !near(got, c.want) {
			t.Errorf("%s: iqrShare(%v) = %g, want %g", c.name, c.xs, got, c.want)
		}
	}
}

func TestWorseByAndJudge(t *testing.T) {
	if got := worseBy(100, 110, "lower"); !near(got, 0.1) {
		t.Errorf("lower: 110 after 100 is worse by %g, want 0.1", got)
	}
	if got := worseBy(100, 90, "lower"); !near(got, -0.1) {
		t.Errorf("lower: 90 after 100 is worse by %g, want -0.1", got)
	}
	if got := worseBy(100, 90, "higher"); !near(got, 0.1) {
		t.Errorf("higher: 90 after 100 is worse by %g, want 0.1", got)
	}
	if got := worseBy(0, 5, "lower"); got != 0 {
		t.Errorf("a zero base gives %g, want 0", got)
	}

	lat := metricSpec{Name: "discover_p50_ms", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shifted := make([]float64, len(steady))
	for i, v := range steady {
		shifted[i] = v * 1.2
	}
	if v := judge(lat, steady, steady); !v.pass || v.gap != 0 {
		t.Errorf("identical sets: %+v, want a pass with no gap", v)
	}
	// The gap is symmetric: whichever set is worse, it is found.
	if v := judge(lat, steady, shifted); v.pass || !near(v.gap, 0.2) {
		t.Errorf("B 20%% slower: %+v, want a fail with gap 0.2", v)
	}
	if v := judge(lat, shifted, steady); v.pass || v.gap < 0.15 {
		t.Errorf("A 20%% slower: %+v, want a fail", v)
	}
	wide := []float64{60, 140, 100, 70, 130, 100, 80, 120, 100, 100}
	if v := judge(lat, wide, wide); v.pass {
		t.Errorf("a spread of %.2f passed a bound of %g", v.spreadA, lat.Bound)
	}
	// setup_s is judged on the gap alone.
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.1}
	if v := judge(setup, wide, wide); !v.pass {
		t.Errorf("setup_s failed on spread: %+v", v)
	}
}
