package index

import (
	"math/rand"
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
}
