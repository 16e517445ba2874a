package index

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// scatteredRows draws n distinct ascending rows spread over the
// universe — the shape of a highly-selective cached filter set.
func scatteredRows(rng *rand.Rand, universe, n int) []int {
	stride := universe / n
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i*stride+rng.Intn(stride))
	}
	return out
}

// stridedRows returns every stride-th row starting at offset — a set
// dense enough to live in bitset form at any universe.
func stridedRows(universe, stride, offset int) []int {
	out := make([]int, 0, universe/stride+1)
	for r := offset; r < universe; r += stride {
		out = append(out, r)
	}
	return out
}

// BenchmarkRowSetIntersect measures the three form combinations of
// AndWith over a million-row universe — the shapes the abduction
// intersection cascade produces at scale. Each iteration pays one
// Clone (the cascade's detach step) plus the intersection.
func BenchmarkRowSetIntersect(b *testing.B) {
	const universe = 1 << 20
	rng := rand.New(rand.NewSource(11))

	sparseA := RowSetFromSorted(scatteredRows(rng, universe, 256))
	sparseB := RowSetFromSorted(scatteredRows(rng, universe, 512))
	denseA := RowSetFromSorted(stridedRows(universe, 3, 0))
	denseB := RowSetFromSorted(stridedRows(universe, 5, 1))

	if sparseA.Form() != "sparse" || denseA.Form() != "dense" {
		b.Fatalf("setup forms: %s/%s", sparseA.Form(), denseA.Form())
	}

	cases := []struct {
		name string
		a, t *RowSet
	}{
		{"sparse_sparse", sparseA, sparseB},
		{"sparse_dense", sparseA, denseA},
		{"dense_dense", denseA, denseB},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := c.a.Clone()
				s.AndWith(c.t)
			}
		})
	}

	// The time crossover between the forms (ROADMAP item 8e): the same
	// two k-member sets over 32k rows — 512 words, so sparseLimit, the
	// byte break-even, is k = 1,024 — held sparse and held dense,
	// whatever form k would pick.
	const rows = 1 << 15
	for k := 16; k <= 4096; k *= 2 {
		var pair [2][2]*RowSet // [operand][sparse, dense]
		for i := range pair {
			sp := &RowSet{universeWords: rows >> 6}
			for _, r := range rng.Perm(rows)[:k] {
				sp.sparse = append(sp.sparse, uint32(r))
			}
			slices.Sort(sp.sparse)
			de := sp.Clone()
			de.densify(rows >> 6)
			pair[i] = [2]*RowSet{sp, de}
		}
		for form, name := range []string{"sparse", "dense"} {
			b.Run(fmt.Sprintf("crossover/k=%d/%s", k, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := pair[0][form].Clone()
					s.AndWith(pair[1][form])
				}
			})
		}
	}
}

// floatKey maps a float64 to a uint64 that orders the same way, so a
// closed range test is one unsigned compare of (key - lo) against the
// span (exact for the non-negative, non-NaN cells the benchmark draws).
func floatKey(f float64) uint64 {
	b := math.Float64bits(f)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// scanWord is a row-order range scan in the fastest scalar form found
// for it (branch-free, integer keys: 1.2 ns a row against 1.5 for float
// compares shifted into an accumulator and 1.5–5.6 for a branch per
// row): bit i is set when cells[i] lies in the range, over 64 cells. No
// builder scans; it is the reference the index fill is measured against.
func scanWord(cells []float64, lo, span uint64) uint64 {
	var mask uint64
	for i, v := range cells[:64] {
		var in uint64
		if floatKey(v)-lo <= span {
			in = 1
		}
		mask |= in << (uint(i) & 63)
	}
	return mask
}

// BenchmarkRowSetFill measures what it costs to put k members into an
// empty set, in ns a member, for each way a builder can fill one: sorted
// (a posting list, ascending rows), unsorted (a numeric-index range,
// rows in value order) and word (scanWord over the whole column under
// its presence bitset — its cost follows the universe, not k) — into a
// set that starts sparse and one that starts dense, at 1%, 10%, 50% and
// 90% of a 32k-row universe (its 4 KB bitset stays in L1) and a 1M-row
// one (128 KB, L2). Of the two targets one is the form NewRowSet picks
// for that count and the other is the wrong pick (a sparse start past
// the limit migrates mid-fill), so a row prices the pick as well as the
// fill; unsorted against word is the comparison that retired the scan
// arm of EntityRowSetInRange.
func BenchmarkRowSetFill(b *testing.B) {
	for _, universe := range []int{1 << 15, 1 << 20} {
		rng := rand.New(rand.NewSource(23))
		limit := sparseLimit(universe >> 6)
		cells := make([]float64, universe)
		has := make([]uint64, universe>>6)
		for i := range cells {
			cells[i] = rng.Float64()
			has[i>>6] |= 1 << (i & 63)
		}
		for _, pct := range []int{1, 10, 50, 90} {
			k := universe * pct / 100
			// The members are the rows whose cell is at most the pct-th
			// percentile: about k of them.
			hi := float64(pct) / 100
			var sorted []uint32
			var unsorted []int
			for row, v := range cells {
				if v <= hi {
					sorted = append(sorted, uint32(row))
					unsorted = append(unsorted, row)
				}
			}
			rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
			targets := []struct {
				name  string
				count int
			}{{"sparse", min(k, limit)}, {"dense", max(k, limit+1)}}
			fills := []struct {
				name string
				fill func(s *RowSet)
			}{
				{"sorted", func(s *RowSet) { s.AddAll(sorted) }},
				{"unsorted", func(s *RowSet) { s.AddInts(unsorted) }},
				{"word", func(s *RowSet) {
					lo, span := floatKey(0), floatKey(hi)-floatKey(0)
					for wi := range has {
						mask := scanWord(cells[wi<<6:], lo, span) & has[wi]
						if s.words != nil {
							s.words[wi] |= mask
							continue
						}
						for ; mask != 0; mask &= mask - 1 {
							s.Add(wi<<6 | bits.TrailingZeros64(mask))
						}
					}
				}},
			}
			for _, target := range targets {
				for _, f := range fills {
					name := fmt.Sprintf("universe=%d/%d%%/%s/%s", universe, pct, target.name, f.name)
					b.Run(name, func(b *testing.B) {
						b.ReportAllocs()
						var s *RowSet
						for i := 0; i < b.N; i++ {
							s = NewRowSet(universe, target.count)
							f.fill(s)
						}
						if s.Count() != len(sorted) {
							b.Fatalf("filled %d members, want %d", s.Count(), len(sorted))
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sorted)), "ns/member")
					})
				}
			}
		}
	}
}
