package index

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomRowSet draws a random ascending, duplicate-free row list over
// [0, universe); density in (0,1] controls the expected fill.
func randomRowSet(rng *rand.Rand, universe int, density float64) []int {
	var out []int
	for r := 0; r < universe; r++ {
		if rng.Float64() < density {
			out = append(out, r)
		}
	}
	return out
}

// refIntersect keeps the rows of a that are also in b — the
// sorted-[]int intersection oracle AndWith must match exactly.
func refIntersect(a, b []int) []int {
	inB := map[int]bool{}
	for _, r := range b {
		inB[r] = true
	}
	var out []int
	for _, r := range a {
		if inB[r] {
			out = append(out, r)
		}
	}
	return out
}

// TestRowSetRoundTrip pins the []int <-> bitset conversion on the edge
// shapes the cache migration must preserve: empty (nil in, nil out),
// singleton, all-rows, and randomized sets.
func TestRowSetRoundTrip(t *testing.T) {
	if got := RowSetFromSorted(nil).ToSorted(); got != nil {
		t.Errorf("empty round trip = %v, want nil", got)
	}
	if got := NewRowSet(100, 0).ToSorted(); got != nil {
		t.Errorf("fresh set ToSorted = %v, want nil", got)
	}
	cases := [][]int{
		{0},
		{63}, {64}, {65}, // word-boundary singletons
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, // prefix
	}
	all := make([]int, 1000)
	for i := range all {
		all[i] = i
	}
	cases = append(cases, all)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		cases = append(cases, randomRowSet(rng, 1+rng.Intn(500), rng.Float64()))
	}
	for _, rows := range cases {
		s := RowSetFromSorted(rows)
		if got := s.Count(); got != len(rows) {
			t.Fatalf("Count(%v) = %d, want %d", rows, got, len(rows))
		}
		got := s.ToSorted()
		want := rows
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %v = %v", rows, got)
		}
		for _, r := range rows {
			if !s.Contains(r) {
				t.Fatalf("Contains(%d) false for member of %v", r, rows)
			}
		}
		if s.Contains(-1) {
			t.Fatal("Contains(-1) true")
		}
	}
}

// TestRowSetAlgebraParity drives AndWith against the sorted-merge
// oracle on randomized pairs, including the empty, singleton, and
// all-rows shapes.
func TestRowSetAlgebraParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	all := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	pairs := [][2][]int{
		{nil, nil},
		{nil, {5}},
		{{5}, nil},
		{{5}, {5}},
		{{0}, {64}},
		{all(200), all(130)},
		{all(64), {63}},
	}
	for i := 0; i < 200; i++ {
		u1, u2 := 1+rng.Intn(400), 1+rng.Intn(400)
		pairs = append(pairs, [2][]int{
			randomRowSet(rng, u1, rng.Float64()),
			randomRowSet(rng, u2, rng.Float64()),
		})
	}
	for _, p := range pairs {
		a, b := p[0], p[1]

		and := RowSetFromSorted(a).Clone()
		remaining := and.AndWith(RowSetFromSorted(b))
		wantAnd := refIntersect(a, b)
		if got := and.ToSorted(); !reflect.DeepEqual(got, wantAnd) {
			t.Fatalf("AndWith(%v, %v) = %v, want %v", a, b, got, wantAnd)
		}
		if remaining != (len(wantAnd) > 0) {
			t.Fatalf("AndWith(%v, %v) reported remaining=%v with %d rows", a, b, remaining, len(wantAnd))
		}
	}
}

// TestRowSetCloneIsDetached pins the detach contract IntersectRows
// relies on: mutating a clone never changes the original (which may be
// shared αDB cache storage).
func TestRowSetCloneIsDetached(t *testing.T) {
	orig := RowSetFromSorted([]int{1, 64, 200})
	c := orig.Clone()
	c.AndWith(RowSetFromSorted([]int{64}))
	c.Add(3)
	if got := orig.ToSorted(); !reflect.DeepEqual(got, []int{1, 64, 200}) {
		t.Fatalf("original mutated through clone: %v", got)
	}
	var nilSet *RowSet
	if got := nilSet.Clone(); got == nil || got.Count() != 0 {
		t.Fatalf("nil Clone = %v", got)
	}
}

// TestRowSetIterate pins ascending iteration order and early stop.
func TestRowSetIterate(t *testing.T) {
	rows := []int{0, 1, 63, 64, 127, 128, 300}
	var seen []int
	RowSetFromSorted(rows).Iterate(func(r int) bool {
		seen = append(seen, r)
		return true
	})
	if !reflect.DeepEqual(seen, rows) {
		t.Fatalf("Iterate order %v, want %v", seen, rows)
	}
	var first []int
	RowSetFromSorted(rows).Iterate(func(r int) bool {
		first = append(first, r)
		return len(first) < 2
	})
	if !reflect.DeepEqual(first, []int{0, 1}) {
		t.Fatalf("early stop visited %v", first)
	}
}

// TestAddRangeToSet checks the bitset range path against RowsInRange.
func TestAddRangeToSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 300
	vals := make([]float64, n)
	rows := make([]int, n)
	for i := range vals {
		vals[i] = float64(rng.Intn(50))
		rows[i] = i
	}
	idx := BuildNumericRows(vals, rows)
	for i := 0; i < 50; i++ {
		lo := float64(rng.Intn(60) - 5)
		hi := lo + float64(rng.Intn(20))
		s := NewRowSet(n, idx.CountRange(lo, hi))
		idx.AddRangeToSet(lo, hi, s)
		want := idx.RowsInRange(lo, hi)
		got := s.ToSorted()
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AddRangeToSet(%g,%g) = %v, want %v", lo, hi, got, want)
		}
	}
	// Inverted and out-of-domain ranges add nothing.
	s := NewRowSet(n, 0)
	idx.AddRangeToSet(10, 5, s)
	idx.AddRangeToSet(1000, 2000, s)
	if s.Count() != 0 {
		t.Fatalf("empty ranges added %d rows", s.Count())
	}
}
