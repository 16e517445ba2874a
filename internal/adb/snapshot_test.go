package adb

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"squid/internal/index"
	"squid/internal/relation"
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

// statsFingerprint is alphaFingerprint without the derived relations'
// row listings: every statistic, in an order the file's row order cannot
// change.
func statsFingerprint(a *AlphaDB) string {
	stats, _, _ := strings.Cut(alphaFingerprint(a), "derivedrel ")
	return stats
}

// TestDecodeRejectsOutOfRangeBlocks damages, one case at a time, what a
// v5 snapshot still trusts — a value code past the dictionary or
// negative, per-row blocks shorter than the relation, a distinct-value
// count the rows contradict, a property path that does not resolve
// against the schema, and the cells of a derived relation that buildPairs
// turns into pair lists (an entity_id no entity has, a strength no
// association can have, an (entity, value) listed twice, a NULL) — and
// expects Decode to fail: unchecked, every one of these loads
// cleanly and panics or answers wrongly later, inside a discovery. The
// rebuilt cases damage what v5 no longer stores — a posting list, a
// numeric index, a pair list, the row order of a derived relation — and
// expect the opposite: the damage cannot reach the file, so the loaded
// αDB answers as the undamaged fixture does.
func TestDecodeRejectsOutOfRangeBlocks(t *testing.T) {
	clean, err := roundTrip(t, buildFixture(t))
	if err != nil {
		t.Fatalf("undamaged fixture does not round-trip: %v", err)
	}
	const far = 1 << 20
	// setCell overwrites one cell of person's movie:genre relation, whose
	// rows are (1, Comedy, 3), (2, Drama, 2), (3, Comedy, 1).
	setCell := func(person *EntityInfo, row int, col string, v relation.Value) {
		if err := person.DerivedByAttr("movie:genre").rel.Column(col).Set(row, v); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name    string
		rebuilt bool
		damage  func(person *EntityInfo)
	}{
		{"valsByRow code past the dictionary", false, func(person *EntityInfo) {
			person.BasicByAttr("gender").valsByRow.Insert(0, 1, far)
		}},
		{"valsByRow negative code", false, func(person *EntityInfo) {
			person.BasicByAttr("gender").valsByRow.Insert(0, 1, -3)
		}},
		{"valsByRow shorter than the relation", false, func(person *EntityInfo) {
			p := person.BasicByAttr("gender")
			offs, flat := []uint32{0}, []int32(nil)
			for row := 0; row < p.valsByRow.Len()-1; row++ {
				flat = append(flat, p.valsByRow.At(row)...)
				offs = append(offs, uint32(len(flat)))
			}
			p.valsByRow = index.JaggedOf(offs, flat)
		}},
		{"numValues the rows contradict", false, func(person *EntityInfo) {
			person.BasicByAttr("gender").numValues++
		}},
		{"numeric cells shorter than the relation", false, func(person *EntityInfo) {
			p := person.BasicByAttr("age")
			var flat []float64
			for _, v := range p.numByRow.All() {
				flat = append(flat, v)
			}
			p.numByRow = index.ChunkedOf(flat[:len(flat)-1])
		}},
		{"access path onto a column of the other kind", false, func(person *EntityInfo) {
			// An insert would read the INTEGER column's cells as codes.
			person.BasicByAttr("gender").Access.Column = "age"
		}},
		{"access path through a relation the schema lacks", false, func(person *EntityInfo) {
			person.BasicByAttr("country").Access.Dim = "nowhere"
		}},
		{"derived path through a column the schema lacks", false, func(person *EntityInfo) {
			person.DerivedByAttr("movie:genre").Fact1ViaCol = "nowhere"
		}},
		{"derived relation the file lacks", false, func(person *EntityInfo) {
			person.DerivedByAttr("movie:genre").RelName = "nowhere"
		}},
		{"pair row past the relation", false, func(person *EntityInfo) {
			// A pair's row is resolved from entity_id: no entity has this one.
			setCell(person, 1, "entity_id", relation.IntVal(far))
		}},
		{"pair row at the 32-bit edge", false, func(person *EntityInfo) {
			// Pair rows are 32 bits wide in memory: an id narrowed before
			// it is resolved would wrap onto entity 1.
			setCell(person, 1, "entity_id", relation.IntVal(1<<32|1))
		}},
		{"pair row repeated", false, func(person *EntityInfo) {
			setCell(person, 2, "entity_id", relation.IntVal(1))
		}},
		{"pair cell NULL", false, func(person *EntityInfo) {
			setCell(person, 0, "count", relation.Null)
		}},
		{"pair count zero", false, func(person *EntityInfo) {
			setCell(person, 0, "count", relation.IntVal(0))
		}},
		{"pair count negative", false, func(person *EntityInfo) {
			setCell(person, 0, "count", relation.IntVal(-1))
		}},
		{"pair count past the database", false, func(person *EntityInfo) {
			// The histogram is sized by the largest count: unchecked, one
			// damaged cell asks for gigabytes.
			setCell(person, 0, "count", relation.IntVal(1<<31))
		}},
		{"pair count at the 32-bit edge", false, func(person *EntityInfo) {
			setCell(person, 0, "count", relation.IntVal(math.MaxUint32))
		}},

		{"pair rows out of order", true, func(person *EntityInfo) {
			// What an insert leaves behind: a value's rows out of entity
			// order in the relation. StrengthOfCode binary-searches the
			// list, so load sorts it.
			setCell(person, 0, "entity_id", relation.IntVal(3))
			setCell(person, 0, "count", relation.IntVal(1))
			setCell(person, 2, "entity_id", relation.IntVal(1))
			setCell(person, 2, "count", relation.IntVal(3))
		}},
		{"pair list code past the dictionary", true, func(person *EntityInfo) {
			p := person.DerivedByAttr("movie:genre")
			for n := p.valueDict().Len(); p.codes.Len() <= n; {
				p.codes.Append(nil, codeStats{})
			}
		}},
		{"catRows row past the relation", true, func(person *EntityInfo) {
			p := person.BasicByAttr("gender")
			for code := range p.catRows.Len() {
				if p.catRows.Count(code) > 0 {
					p.catRows.AddRow(code, far)
					return
				}
			}
			t.Fatal("fixture property has no posting list")
		}},
		{"catRows code past the dictionary", true, func(person *EntityInfo) {
			p := person.BasicByAttr("gender")
			p.catRows.AddRow(2*p.dict.Len(), 0)
		}},
		{"numeric index row past the relation", true, func(person *EntityInfo) {
			p := person.BasicByAttr("age")
			p.numIdx = p.numIdx.Insert(55, far)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := buildFixture(t)
			c.damage(a.Entity("person"))
			loaded, err := roundTrip(t, a)
			switch {
			case !c.rebuilt && err == nil:
				t.Fatal("damaged snapshot loaded without an error")
			case c.rebuilt && err != nil:
				t.Fatalf("damage outside what the file stores failed the load: %v", err)
			case c.rebuilt && statsFingerprint(loaded) != statsFingerprint(clean):
				t.Errorf("loaded statistics differ from the undamaged fixture's:\n%s\n--- undamaged ---\n%s",
					statsFingerprint(loaded), statsFingerprint(clean))
			}
		})
	}
}
