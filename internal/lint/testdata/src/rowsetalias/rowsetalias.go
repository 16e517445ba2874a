// Fixture for the rowsetalias analyzer: a RowSet obtained from a Filter
// or an EntityRowSet* property method is the property's memo storage —
// mutating it without Clone() is a violation.
package rowsetalias

import (
	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/index"
	"squid/internal/trace"
)

// --- positive cases: mutating a memo-aliasing set ---

func chainedMutation(p *adb.DerivedProperty) {
	p.EntityRowSetWithStrength(0, 1, trace.Span{}, true).AndWith(nil) // want "AndWith mutates a RowSet aliasing shared"
}

func filterAlias(f *abduction.Filter) {
	s := f.RowSet()
	s.Add(1) // want "Add mutates a RowSet aliasing shared"
}

func propertyAlias(p *adb.BasicProperty) {
	s := p.EntityRowSetInRange(0, 10, trace.Span{}, true)
	s.AddAll(nil) // want "AddAll mutates a RowSet aliasing shared"
}

func aliasCopied(f *abduction.Filter) {
	s := f.RowSet()
	t := s
	t.AndWith(nil) // want "AndWith mutates a RowSet aliasing shared"
}

// Under the adaptive representation, highly-selective memoized sets
// live in the sparse (sorted-array) form — they are exactly as shared
// as dense ones, and the bulk mutators corrupt them just the same.
func sparseMemoBulkMutation(f *abduction.Filter) {
	s := f.RowSet()
	s.AddAll([]uint32{1, 2}) // want "AddAll mutates a RowSet aliasing shared"
}

func rangeAliasTakesInts(p *adb.BasicProperty) {
	s := p.EntityRowSetInRange(0, 10, trace.Span{}, true)
	s.AddInts([]int{4}) // want "AddInts mutates a RowSet aliasing shared"
}

func disjunctionAlias(p *adb.BasicProperty) {
	s := p.EntityRowSetWithAnyCode([]int32{0, 1}, trace.Span{}, true)
	s.AndWith(nil) // want "AndWith mutates a RowSet aliasing shared"
}

// --- negative cases ---

// Clone() detaches from memo storage; the copy is private.
func cloneDetaches(f *abduction.Filter) {
	s := f.RowSet().Clone()
	s.AndWith(nil)
}

// Read-only methods never trip the analyzer.
func readsAreFine(f *abduction.Filter) int {
	s := f.RowSet()
	if s.Contains(3) {
		return s.Count()
	}
	return len(s.ToSorted())
}

// A set built locally is owned by the caller.
func freshSetIsPrivate() {
	s := index.NewRowSet(64, 1)
	s.Add(3)
	s.AndWith(nil)
}

// A locally-built sparse set (RowSetFromSorted) is private too — form
// never decides ownership.
func freshSparseIsPrivate() {
	s := index.RowSetFromSorted([]int{1, 2, 3})
	s.AddAll([]uint32{9})
	s.AndWith(nil)
}
