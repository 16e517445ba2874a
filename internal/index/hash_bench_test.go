package index

import (
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
	)
	wide := make([]int64, hashBenchRows/6)
	for i := range wide {
		wide[i] = rng.Int63() - 1<<62
	}
	for i := 0; i < hashBenchRows; i++ {
		rel.MustAppend(
			relation.IntVal(int64(i)), relation.IntVal(int64(i/6)), relation.IntVal(int64(rng.Intn(hashBenchRows/6))),
			relation.IntVal(wide[rng.Intn(len(wide))]),
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
		{"unique-pk", "pk"}, {"clustered-entity-id", "entity_id"}, {"shuffled-fk", "fk"}, {"sparse-int", "sparse"},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var h *IntHash
			for i := 0; i < b.N; i++ {
				h = BuildIntHash(rel, arm.col)
			}
			resident, _ := h.residentBytes()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/hashBenchRows, "ns/row")
			b.ReportMetric(float64(resident)/float64(h.NumKeys()), "B/key")
		})
	}
}

// BenchmarkHashIndexRows measures the point lookup — one op is 4096
// probes of present keys in random order, ns/probe the figure — against
// the dense form, the sparse form, each behind 500 inserts into keys it
// holds, and the dense form past its window: 500 new keys above the
// largest, probed through the key table's tail, as every primary key
// inserted since the fold is.
func BenchmarkHashIndexRows(b *testing.B) {
	rel := hashBenchColumns()
	rng := rand.New(rand.NewSource(7))
	present := func(col string) []int64 {
		c := rel.Column(col)
		keys := make([]int64, c.Len())
		for i := range keys {
			keys[i] = c.Int64(i)
		}
		return keys
	}
	probe := func(b *testing.B, h *IntHash, from []int64) {
		keys := make([]int64, 4096)
		for i := range keys {
			keys[i] = from[rng.Intn(len(from))]
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				hashBenchSink += h.Rows(k).Len()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/probe")
	}
	behindTail := func(col string) (*IntHash, []int64) {
		h, keys := BuildIntHash(rel, col).Clone(nil), present(col)
		for i := 0; i < 500; i++ {
			h.Insert(keys[rng.Intn(len(keys))], hashBenchRows+i)
		}
		return h, keys
	}
	b.Run("dense", func(b *testing.B) { probe(b, BuildIntHash(rel, "fk"), present("fk")) })
	b.Run("sparse", func(b *testing.B) { probe(b, BuildIntHash(rel, "sparse"), present("sparse")) })
	for _, arm := range []struct{ name, col string }{{"dense-behind-tail", "fk"}, {"sparse-behind-tail", "sparse"}} {
		b.Run(arm.name, func(b *testing.B) {
			h, keys := behindTail(arm.col)
			probe(b, h, keys)
		})
	}
	b.Run("dense-past-window", func(b *testing.B) {
		h, added := BuildIntHash(rel, "pk").Clone(nil), make([]int64, 500)
		for i := range added {
			added[i] = int64(hashBenchRows + i)
			h.Insert(added[i], hashBenchRows+i)
		}
		probe(b, h, added)
	})
}
