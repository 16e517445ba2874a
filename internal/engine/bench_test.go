package engine

import (
	"context"
	"fmt"
	"testing"

	"squid/internal/relation"
)

// BenchmarkStreamJoin measures what streamJoin pays per streamed cell:
// a small relation joins a 200,000-row fact table no index covers, so
// the table is built over the small side and the fact column streams
// past it. Nearly every cell misses, as a foreign-key column streamed
// for a handful of keys does; the arms differ in which test rejects it:
// the range (one key), the bitmap (dense keys: the odd values between
// them are in range and absent), the hash table (sparse keys), and in
// how a block of keys is produced (viewed, gathered from a candidate
// list, converted from DOUBLE, translated from TEXT codes).
func BenchmarkStreamJoin(b *testing.B) {
	const cells, keys = 200_000, 1000
	type arm struct {
		name  string
		col   string
		small int                        // rows of the hashed side
		key   func(i int) relation.Value // its i-th key
		cell  func(i int) relation.Value // the fact table's i-th cell
		cands bool                       // stream a candidate list
	}
	iv, fv := relation.IntVal, relation.FloatVal
	sv := func(i int) relation.Value { return relation.StringVal(fmt.Sprintf("s%d", i)) }
	dense := func(i int) relation.Value { return iv(int64(2 * i)) }
	odd := func(i int) relation.Value { return iv(int64(i%keys*2 + 1)) }
	arms := []arm{
		{name: "one key", col: "k", small: 1, key: func(int) relation.Value { return iv(7) }, cell: func(i int) relation.Value { return iv(int64(i + 8)) }},
		{name: "1000 dense keys", col: "k", small: keys, key: dense, cell: odd},
		{name: "1000 sparse keys", col: "k", small: keys,
			key:  func(i int) relation.Value { return iv(int64(1000 * i)) },
			cell: func(i int) relation.Value { return iv(int64(i%keys*1000 + 500)) }},
		{name: "TEXT", col: "s", small: keys, key: sv, cell: func(i int) relation.Value { return sv(keys + i%5000) }},
		{name: "DOUBLE", col: "f", small: keys,
			key:  func(i int) relation.Value { return fv(float64(2 * i)) },
			cell: func(i int) relation.Value { return fv(float64(i%keys*2 + 1)) }},
		{name: "candidate list", col: "k", small: keys, key: dense, cell: odd, cands: true},
	}
	for _, a := range arms {
		typ := map[string]relation.ColType{"k": relation.Int, "f": relation.Float, "s": relation.String}[a.col]
		db := relation.NewDatabase("stream")
		small := relation.New("small", relation.Col(a.col, typ))
		for i := 0; i < a.small; i++ {
			small.MustAppend(a.key(i))
		}
		facts := relation.New("facts", relation.Col(a.col, typ), relation.Col("c", relation.String))
		for i := 0; i < cells; i++ {
			v := a.cell(i)
			if i == cells/2 {
				v = a.key(0) // one match, so the result is not empty
			}
			facts.MustAppend(v, relation.StringVal("a"))
		}
		db.AddRelation(small)
		db.AddRelation(facts)
		q := &Query{
			From:   []string{"small", "facts"},
			Joins:  []Join{{"small", a.col, "facts", a.col}},
			Select: []ColRef{{"facts", a.col}},
		}
		if a.cands {
			q.Preds = []Pred{{Rel: "facts", Col: "c", Op: OpEq, Val: relation.StringVal("a")}}
		}
		b.Run(a.name, func(b *testing.B) {
			ex := NewExecutor(db)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, err := ex.ExecuteCtx(context.Background(), q); err != nil || res.NumRows() != 1 {
					b.Fatalf("want the one planted match, got %v rows, error %v", res.NumRows(), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
		})
	}
}

// BenchmarkDistinctText measures DISTINCT over one TEXT column of 128
// tuples by how many codes the column's dictionary holds for each of
// them: groupFirst as it chooses (the bitmap up to seenBitsPerTuple
// codes a tuple, the map past it) beside firstByCode forced, so the arms
// past the threshold show where zeroing a bit per code starts to cost
// more than hashing the tuples — the crossover seenBitsPerTuple is set
// under. Every value occurs twice among the tuples.
func BenchmarkDistinctText(b *testing.B) {
	const n = 128
	for _, ratio := range []int{16, 256, 512, 1024, 2048} {
		dict := n * ratio
		rel := relation.New("r", relation.Col("s", relation.String))
		for i := 0; i < dict; i++ {
			rel.MustAppend(relation.StringVal(fmt.Sprintf("s%d", i)))
		}
		c := boundCol{col: rel.Column("s")}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i / 2 * ratio
		}
		arms := []struct {
			name string
			run  func(p *poller, t tuples) (tuples, error)
		}{
			{"groupFirst", func(p *poller, t tuples) (tuples, error) { return groupFirst(p, t, []boundCol{c}, 1) }},
			{"firstByCode", func(p *poller, t tuples) (tuples, error) { return firstByCode(p, t, c, dict) }},
		}
		for _, a := range arms {
			b.Run(fmt.Sprintf("%d codes a tuple/%s", ratio, a.name), func(b *testing.B) {
				p := &poller{ctx: b.Context()}
				buf := make([]int, n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					copy(buf, ids) // firstByCode compacts in place
					if out, err := a.run(p, tuples{width: 1, ids: buf}); err != nil || out.len() != n/2 {
						b.Fatalf("kept %d of %d tuples, error %v", out.len(), n, err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
			})
		}
	}
}
