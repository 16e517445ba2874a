package adb

import (
	"bytes"
	"math"
	"strings"
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

// statsFingerprint is alphaFingerprint without the derived relations'
// row listings: every statistic, in an order the file's row order cannot
// change.
func statsFingerprint(a *AlphaDB) string {
	stats, _, _ := strings.Cut(alphaFingerprint(a), "derivedrel ")
	return stats
}

// TestDecodeRejectsOutOfRangeBlocks damages, one case at a time, what a
// snapshot still trusts — a property path that does not resolve
// against the schema, a derived relation name that repeats or shadows a
// base relation — and expects Decode to fail: unchecked, every one of
// these loads cleanly and panics or answers wrongly later, inside a
// discovery. The rebuilt cases damage what the file does not store — a
// categorical property's distinct-value count, a posting list, a
// numeric value order, a derived property's pairs and their order —
// and expect the opposite: the damage
// cannot reach the file, so the loaded αDB answers as the undamaged
// fixture does.
func TestDecodeRejectsOutOfRangeBlocks(t *testing.T) {
	clean, err := roundTrip(t, buildFixture(t))
	if err != nil {
		t.Fatalf("undamaged fixture does not round-trip: %v", err)
	}
	const far = 1 << 20
	// setPair overwrites one pair of person's movie:genre property, whose
	// relation rows are (1, Comedy, 3), (2, Drama, 2), (3, Comedy, 1):
	// persons 1 to 3 are entity rows 0 to 2. Comedy, two pairs over six
	// persons, is a dense column, whose bytes at the old and the damaged
	// entity row are written; Drama is a list of one pair.
	setPair := func(person *EntityInfo, row int, damage func(*valCount)) {
		p := person.DerivedByAttr("movie:genre")
		code, _ := p.LookupCode([]string{"Comedy", "Drama", "Comedy"}[row])
		cs := p.codes.Ref(int(code))
		var vc valCount
		if cs.dense {
			vc = valCount{entityRow: uint32(row), count: uint32(cs.exact(cs.strengths.At(row), uint32(row)))}
			damage(&vc)
			cs.strengths.Set(nil, row, 0)
			cs.strengths.Set(nil, int(vc.entityRow)%cs.strengths.Len(), uint8(min(vc.count, saturated)))
		} else {
			vc = valCount{entityRow: cs.rows.At(0), count: uint32(cs.exact(cs.strengths.At(0), cs.rows.At(0)))}
			damage(&vc)
			cs.rows.SetAt(nil, 0, 0, vc.entityRow)
			cs.strengths.SetAt(nil, 0, 0, uint8(min(vc.count, saturated)))
		}
		if vc.count >= saturated {
			cs.over = append(cs.over, vc)
		}
	}
	cases := []struct {
		name    string
		rebuilt bool
		damage  func(person *EntityInfo)
	}{
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
		{"derived key other than the associated entity's", false, func(person *EntityInfo) {
			person.DerivedByAttr("movie:genre").ViaPK = "year"
		}},
		{"derived target through an attribute table", false, func(person *EntityInfo) {
			// Load would read every movie row as a row of country.
			person.DerivedByAttr("movie:genre").Target = AccessPath{Type: AttrTable, Fact: "country", FactEntityCol: "id", Column: "name"}
		}},
		{"derived relation name repeated", false, func(person *EntityInfo) {
			person.DerivedByAttr("movie:genre").RelName = person.DerivedByAttr("movie:count").RelName
		}},
		{"derived relation name shadows a base relation", false, func(person *EntityInfo) {
			person.DerivedByAttr("movie:genre").RelName = "movie"
		}},

		{"numValues the rows contradict", true, func(person *EntityInfo) {
			person.BasicByAttr("gender").numValues++
		}},
		{"pair row past the relation", true, func(person *EntityInfo) {
			setPair(person, 1, func(vc *valCount) { vc.entityRow = far })
		}},
		{"pair row at the 32-bit edge", true, func(person *EntityInfo) {
			setPair(person, 1, func(vc *valCount) { vc.entityRow = math.MaxUint32 })
		}},
		{"pair row repeated", true, func(person *EntityInfo) {
			setPair(person, 2, func(vc *valCount) { vc.entityRow = 0 })
		}},
		{"pair cell NULL", true, func(person *EntityInfo) {
			setPair(person, 0, func(vc *valCount) { *vc = valCount{} })
		}},
		{"pair count zero", true, func(person *EntityInfo) {
			setPair(person, 0, func(vc *valCount) { vc.count = 0 })
		}},
		{"pair count negative", true, func(person *EntityInfo) {
			setPair(person, 0, func(vc *valCount) { vc.count = uint32(math.MaxUint32) }) // int32 -1
		}},
		{"pair count past the database", true, func(person *EntityInfo) {
			setPair(person, 0, func(vc *valCount) { vc.count = 1 << 31 })
		}},
		{"pair count at the 32-bit edge", true, func(person *EntityInfo) {
			setPair(person, 0, func(vc *valCount) { vc.count = math.MaxUint32 - 1 })
		}},
		{"pair rows out of order", true, func(person *EntityInfo) {
			// Comedy's list out of entity order: Load lists it in order
			// again.
			setPair(person, 0, func(vc *valCount) { *vc = valCount{entityRow: 2, count: 1} })
			setPair(person, 2, func(vc *valCount) { *vc = valCount{entityRow: 0, count: 3} })
		}},
		{"pair list code past the dictionary", true, func(person *EntityInfo) {
			p := person.DerivedByAttr("movie:genre")
			for n := p.dict.Len(); p.codes.Len() <= n; {
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
			p.order.Append(nil, far)
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

// TestDecodeRejectsMissingEntityEntry: a file whose entity entries
// differ from the relations its schema marks as entities fails the
// load. Loaded, it panicked at the first fact insert, which walks every
// marked relation and reads its entry.
func TestDecodeRejectsMissingEntityEntry(t *testing.T) {
	for _, drop := range []string{"person", "movie"} {
		a := buildFixture(t)
		delete(a.Snapshot().Entities, drop)
		if _, err := roundTrip(t, a); err == nil {
			t.Errorf("a file without the %s entry loaded", drop)
		}
	}
}
