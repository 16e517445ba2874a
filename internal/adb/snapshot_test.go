package adb

import (
	"bytes"
	"math"
	"testing"

	"squid/internal/index"
	"squid/internal/snapshot"
)

// roundTrip encodes the current epoch and decodes it back, turning a
// decoder panic into a test failure of its own.
func roundTrip(t *testing.T, a *AlphaDB) (loaded *AlphaDB, err error) {
	t.Helper()
	var buf bytes.Buffer
	w := snapshot.NewWriter(&buf)
	a.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked: %v", r)
		}
	}()
	return Decode(snapshot.NewReader(&buf))
}

// TestDecodeRejectsOutOfRangeBlocks damages one value of each block the
// decoder adopts by reference — a row number past the entity relation,
// a value code past the dictionary, a numeric index out of order, a
// pair list out of order or with a strength no association can have —
// and expects Decode to fail. Without the range checks every one of these
// loads cleanly and panics later, inside a discovery.
func TestDecodeRejectsOutOfRangeBlocks(t *testing.T) {
	if _, err := roundTrip(t, buildFixture(t)); err != nil {
		t.Fatalf("undamaged fixture does not round-trip: %v", err)
	}
	const far = 1 << 20
	// firstPairs returns the first non-empty pair list of movie:genre.
	firstPairs := func(person *EntityInfo) *codeStats {
		p := person.DerivedByAttr("movie:genre")
		for code := 0; code < p.codes.Len(); code++ {
			if cs := p.codes.Ref(code); cs.pairs.Len() > 1 {
				return cs
			}
		}
		t.Fatal("fixture property has no pair list of two")
		return nil
	}
	setPair := func(cs *codeStats, i int, vc valCount) { cs.pairs.SetAt(nil, 0, i, vc) }
	cases := []struct {
		name   string
		damage func(person *EntityInfo)
	}{
		{"catRows row past the relation", func(person *EntityInfo) {
			for _, rows := range person.BasicByAttr("gender").catRows.All() {
				if len(rows) > 0 {
					rows[0] = far
					return
				}
			}
			t.Fatal("fixture property has no posting list")
		}},
		{"catRows code past the dictionary", func(person *EntityInfo) {
			p := person.BasicByAttr("gender")
			for i := p.dict.Len(); i > 0; i-- {
				p.catRows.Append(nil, nil)
			}
		}},
		{"valsByRow code past the dictionary", func(person *EntityInfo) {
			person.BasicByAttr("gender").valsByRow.Set(nil, 0, []int32{far})
		}},
		{"valsByRow negative code", func(person *EntityInfo) {
			person.BasicByAttr("gender").valsByRow.Set(nil, 0, []int32{-3})
		}},
		{"valsByRow shorter than the relation", func(person *EntityInfo) {
			p := person.BasicByAttr("gender")
			var flat [][]int32
			for _, codes := range p.valsByRow.All() {
				flat = append(flat, codes)
			}
			p.valsByRow = index.ChunkedOf(flat[:len(flat)-1])
		}},
		{"numeric cells shorter than the relation", func(person *EntityInfo) {
			p := person.BasicByAttr("age")
			var flat []float64
			for _, v := range p.numByRow.All() {
				flat = append(flat, v)
			}
			p.numByRow = index.ChunkedOf(flat[:len(flat)-1])
		}},
		{"numeric index row past the relation", func(person *EntityInfo) {
			_, rows := person.BasicByAttr("age").numIdx.RawPairs()
			rows[0] = far
		}},
		{"numeric index values out of order", func(person *EntityInfo) {
			vals, _ := person.BasicByAttr("age").numIdx.RawPairs()
			vals[0], vals[len(vals)-1] = vals[len(vals)-1], vals[0]
		}},
		{"pair row past the relation", func(person *EntityInfo) {
			cs := firstPairs(person)
			setPair(cs, 1, valCount{entityRow: far, count: 1})
		}},
		{"pair rows out of order", func(person *EntityInfo) {
			// StrengthOfCode binary-searches the rows: adopted out of
			// order it silently answers 0.
			cs := firstPairs(person)
			a, b := cs.pairs.At(0), cs.pairs.At(1)
			setPair(cs, 0, b)
			setPair(cs, 1, a)
		}},
		{"pair row repeated", func(person *EntityInfo) {
			cs := firstPairs(person)
			setPair(cs, 1, cs.pairs.At(0))
		}},
		{"pair count zero", func(person *EntityInfo) {
			cs := firstPairs(person)
			setPair(cs, 0, valCount{entityRow: cs.pairs.At(0).entityRow, count: 0})
		}},
		{"pair count past the database", func(person *EntityInfo) {
			// The histogram is sized by the largest count: unchecked, one
			// damaged cell asks for gigabytes. (Blocks are uint32 on
			// disk, so a negative count cannot be encoded at all.)
			cs := firstPairs(person)
			setPair(cs, 0, valCount{entityRow: cs.pairs.At(0).entityRow, count: 1 << 31})
		}},
		{"pair row at the 32-bit edge", func(person *EntityInfo) {
			// Pairs are 32 bits wide in memory: a row or strength the
			// decoder narrowed before checking would wrap into range.
			cs := firstPairs(person)
			setPair(cs, 1, valCount{entityRow: math.MaxUint32, count: 1})
		}},
		{"pair count at the 32-bit edge", func(person *EntityInfo) {
			cs := firstPairs(person)
			setPair(cs, 0, valCount{entityRow: cs.pairs.At(0).entityRow, count: math.MaxUint32})
		}},
		{"pair list code past the dictionary", func(person *EntityInfo) {
			p := person.DerivedByAttr("movie:genre")
			for n := p.valueDict().Len(); p.codes.Len() <= n; {
				p.codes.Append(nil, codeStats{})
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := buildFixture(t)
			c.damage(a.Entity("person"))
			if _, err := roundTrip(t, a); err == nil {
				t.Fatal("damaged snapshot loaded without an error")
			}
		})
	}
}
