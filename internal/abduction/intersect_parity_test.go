package abduction

import (
	"math/rand"
	"reflect"
	"testing"

	"squid/internal/adb"
)

// scanIntersect is the brute-force oracle: every row the entity has,
// kept iff every filter's SatisfiedBy accepts it. Independent of both
// the bitset algebra and the posting-list machinery.
func scanIntersect(info *adb.EntityInfo, fs []*Filter) []int {
	var out []int
	for row := 0; row < info.NumRows; row++ {
		ok := true
		for _, f := range fs {
			if !f.SatisfiedBy(info, row) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

// mergeSorted intersects two ascending row lists by two-pointer merge.
func mergeSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// mergeIntersect is the pre-bitset IntersectRows algorithm (sorted-merge
// cascade over each filter's decoded row list), kept inline as a second
// reference that shares none of the RowSet algebra.
func mergeIntersect(fs []*Filter) []int {
	acc := fs[0].RowSet().ToSorted()
	for _, f := range fs[1:] {
		acc = mergeSorted(acc, f.RowSet().ToSorted())
		if len(acc) == 0 {
			return nil
		}
	}
	return acc
}

// TestIntersectRowsMatchesReference drives the bitset IntersectRows
// against two independent references — a brute-force SatisfiedBy scan
// and the old sorted-merge cascade — on every single filter and on
// randomized filter subsets from the discovered contexts of both test
// fixtures, including subsets whose conjunction is empty.
func TestIntersectRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fixtures := []struct {
		name     string
		info     *adb.EntityInfo
		examples []int
	}{
		{"fig1", fig1DB(t).Entity("academics"), []int{1, 3}},
		{"actors", actorsDB(t, 80, 40, 3).Entity("person"), []int{0, 1}},
	}
	for _, fx := range fixtures {
		contexts := DiscoverContexts(fx.info, fx.examples, DefaultParams())
		if len(contexts) == 0 {
			t.Fatalf("%s: no contexts discovered", fx.name)
		}
		var filters []*Filter
		for _, c := range contexts {
			filters = append(filters, c.Filter)
		}

		check := func(fs []*Filter) {
			t.Helper()
			got := IntersectRows(fx.info, fs)
			wantScan := scanIntersect(fx.info, fs)
			if !reflect.DeepEqual(got, wantScan) {
				t.Fatalf("%s: IntersectRows(%d filters) = %v, scan oracle %v", fx.name, len(fs), got, wantScan)
			}
			if wantMerge := mergeIntersect(fs); !reflect.DeepEqual(got, wantMerge) {
				t.Fatalf("%s: IntersectRows(%d filters) = %v, merge oracle %v", fx.name, len(fs), got, wantMerge)
			}
		}

		// Every filter alone, then the full conjunction.
		for _, f := range filters {
			check([]*Filter{f})
		}
		check(filters)

		// Randomized subsets (order shuffled too: IntersectRows re-sorts
		// by selectivity internally, the result must not depend on input
		// order).
		for i := 0; i < 30; i++ {
			perm := rng.Perm(len(filters))
			k := 1 + rng.Intn(len(filters))
			fs := make([]*Filter, 0, k)
			for _, j := range perm[:k] {
				fs = append(fs, filters[j])
			}
			check(fs)
		}
	}

	// No filters at all: the contract is "all rows".
	info := fixtures[0].info
	if got := IntersectRows(info, nil); len(got) != info.NumRows {
		t.Fatalf("IntersectRows with no filters = %d rows, want %d", len(got), info.NumRows)
	}
}
