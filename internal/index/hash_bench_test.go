package index

import (
	"fmt"
	"math/rand"
	"testing"

	"squid/internal/relation"
)

// hashBenchRows is the column length of the hash-index benchmarks:
// about the benchmark fixture's castinfo.
const hashBenchRows = 150_000

// hashBenchColumns builds one relation with a column per key shape the
// system indexes.
func hashBenchColumns() *relation.Relation {
	rng := rand.New(rand.NewSource(18))
	rel := relation.New("bench",
		relation.Col("pk", relation.Int),        // unique, ascending
		relation.Col("entity_id", relation.Int), // clustered, ~6 rows a key
		relation.Col("fk", relation.Int),        // shuffled, ~6 rows a key
		relation.Col("sparse", relation.Int),    // ~6 rows a key over all of int64
		relation.Col("tag", relation.String),    // low-cardinality text
	)
	wide := make([]int64, hashBenchRows/6)
	for i := range wide {
		wide[i] = rng.Int63() - 1<<62
	}
	for i := 0; i < hashBenchRows; i++ {
		rel.MustAppend(
			relation.IntVal(int64(i)), relation.IntVal(int64(i/6)), relation.IntVal(int64(rng.Intn(hashBenchRows/6))),
			relation.IntVal(wide[rng.Intn(len(wide))]), relation.StringVal(fmt.Sprintf("Tag %d", rng.Intn(30))),
		)
	}
	return rel
}

var hashBenchSink int

// BenchmarkHashIndexBuild measures the bulk build of one hash index per
// key shape: ns/row, what the build allocates (B/op includes the
// transient ordinals) and what the finished index keeps per key
// (B/key, from residentBytes).
func BenchmarkHashIndexBuild(b *testing.B) {
	rel := hashBenchColumns()
	for _, arm := range []struct{ name, col string }{
		{"unique-pk", "pk"}, {"clustered-entity-id", "entity_id"}, {"shuffled-fk", "fk"},
		{"sparse-int", "sparse"}, {"low-card-text", "tag"},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var resident int64
			keys := 0
			for i := 0; i < b.N; i++ {
				if rel.Column(arm.col).Type == relation.Int {
					h := BuildIntHash(rel, arm.col)
					resident, _ = h.residentBytes()
					keys = h.NumKeys()
				} else {
					h := BuildStrHash(rel, arm.col)
					resident, _ = h.residentBytes()
					keys = h.NumKeys()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/hashBenchRows, "ns/row")
			b.ReportMetric(float64(resident)/float64(keys), "B/key")
		})
	}
}

// BenchmarkHashIndexRows measures the point lookup — one op is 4096
// probes of present keys in random order, ns/probe the figure — against
// the dense form, the sparse form, and the dense form behind a tail.
func BenchmarkHashIndexRows(b *testing.B) {
	rel := hashBenchColumns()
	rng := rand.New(rand.NewSource(7))
	probe := func(b *testing.B, h *IntHash, col string) {
		c := rel.Column(col)
		keys := make([]int64, 4096)
		for i := range keys {
			keys[i] = c.Int64(rng.Intn(c.Len()))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				hashBenchSink += len(h.Rows(k))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/probe")
	}
	b.Run("dense", func(b *testing.B) { probe(b, BuildIntHash(rel, "fk"), "fk") })
	b.Run("sparse", func(b *testing.B) { probe(b, BuildIntHash(rel, "sparse"), "sparse") })
	b.Run("dense-behind-tail", func(b *testing.B) {
		h := BuildIntHash(rel, "fk").Clone(nil)
		for i := 0; i < 500; i++ {
			h.Insert(int64(rng.Intn(hashBenchRows/6)), hashBenchRows+i)
		}
		probe(b, h, "fk")
	})
}
