package adb

import (
	"bytes"
	"testing"

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
// a value code past the dictionary, a numeric index out of order — and
// expects Decode to fail. Without the range checks every one of these
// loads cleanly and panics later, inside a discovery.
func TestDecodeRejectsOutOfRangeBlocks(t *testing.T) {
	if _, err := roundTrip(t, buildFixture(t)); err != nil {
		t.Fatalf("undamaged fixture does not round-trip: %v", err)
	}
	const far = 1 << 20
	firstList := func(lists [][]int) []int {
		for _, l := range lists {
			if len(l) > 0 {
				return l
			}
		}
		t.Fatal("fixture property has no posting list")
		return nil
	}
	cases := []struct {
		name   string
		damage func(person *EntityInfo)
	}{
		{"catRows row past the relation", func(person *EntityInfo) {
			firstList(person.BasicByAttr("gender").catRows)[0] = far
		}},
		{"catRows code past the dictionary", func(person *EntityInfo) {
			p := person.BasicByAttr("gender")
			p.catRows = append(p.catRows, make([][]int, p.dict.Len())...)
		}},
		{"valsByRow code past the dictionary", func(person *EntityInfo) {
			person.BasicByAttr("gender").valsByRow[0] = []int32{far}
		}},
		{"valsByRow negative code", func(person *EntityInfo) {
			person.BasicByAttr("gender").valsByRow[0] = []int32{-3}
		}},
		{"valsByRow shorter than the relation", func(person *EntityInfo) {
			p := person.BasicByAttr("gender")
			p.valsByRow = p.valsByRow[:len(p.valsByRow)-1]
		}},
		{"numeric index row past the relation", func(person *EntityInfo) {
			_, rows := person.BasicByAttr("age").numIdx.RawPairs()
			rows[0] = far
		}},
		{"numeric index values out of order", func(person *EntityInfo) {
			vals, _ := person.BasicByAttr("age").numIdx.RawPairs()
			vals[0], vals[len(vals)-1] = vals[len(vals)-1], vals[0]
		}},
		{"perValueRows row past the relation", func(person *EntityInfo) {
			for _, vcs := range person.DerivedByAttr("movie:genre").perValueRows {
				if len(vcs) > 0 {
					vcs[0].entityRow = far
					return
				}
			}
		}},
		{"perValueRows code past the dictionary", func(person *EntityInfo) {
			p := person.DerivedByAttr("movie:genre")
			for n := p.valueDict().Len(); len(p.perValueRows) <= n; {
				p.growTo(int32(len(p.perValueRows)))
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
