package index

import (
	"maps"

	"squid/internal/relation"
)

// IndexSet is an epoch's resident hash indexes, keyed by (relation,
// column): the integer primary key of every relation that is not a fact,
// every foreign-key column of a fact relation and every TEXT column, by
// its codes (Build and Load build them all before anything reads them),
// and any index a writer built for itself and published since. Once its epoch is published the set is fixed: it has
// no lock and no method that builds, and a reader that needs an index
// the set lacks builds a private one for itself (the engine does, per
// execution). A writer changes the set only through an IndexDelta, whose
// MergeInto makes the next epoch's set.
type IndexSet struct {
	ints map[ColumnKey]*IntHash
}

// NewIndexSet creates an empty index set.
func NewIndexSet() *IndexSet {
	return &IndexSet{ints: make(map[ColumnKey]*IntHash)}
}

// AdoptIntHash registers a built hash index under (relName, col),
// replacing any existing entry. Only the builder of an epoch that is not
// yet published may call it: Build and Load adopt the resident indexes
// they build.
func (s *IndexSet) AdoptIntHash(relName, col string, h *IntHash) {
	s.ints[ColumnKey{relName, col}] = h
}

// ResidentIntHash returns the hash index over the named integer column
// of rel if the set holds one, and nil otherwise.
func (s *IndexSet) ResidentIntHash(rel *relation.Relation, col string) *IntHash {
	return s.ints[ColumnKey{rel.Name, col}]
}

// NumIndexes reports how many hash indexes the set holds.
func (s *IndexSet) NumIndexes() int { return len(s.ints) }

// ResidentBytes reports what the indexes hold, counted from their
// lengths and element widths: the key tables and flat bases, and the
// tails.
func (s *IndexSet) ResidentBytes() (base, tail int64) {
	for _, h := range s.ints {
		b, t := h.residentBytes()
		base, tail = base+b, tail+t
	}
	return base, tail
}

// IndexDelta accumulates one copy-on-write writer's index changes
// against a base epoch's IndexSet: the first write into a resident index
// clones it (a copy of its key table's tail — the keys added since it
// was built — and one pointer per 64 lists, never of the index), later
// writes mutate the private clone in place, and MergeInto lays the
// clones over the base set. A resident index whose key table has passed
// the fold rule is rebuilt from the writer's relation instead of cloned,
// and so is an index the base lacks. Reads during the apply see the
// private index when one exists and the immutable base otherwise, so a
// batch observes its own earlier rows.
type IndexDelta struct {
	base *IndexSet
	ints map[ColumnKey]*IntHash
	gen  *relation.Gen // the writer's generation: charged for every clone
}

// NewIndexDelta starts an empty delta over the base epoch's set for the
// writer generation g.
func NewIndexDelta(base *IndexSet, g *relation.Gen) *IndexDelta {
	return &IndexDelta{base: base, gen: g, ints: make(map[ColumnKey]*IntHash)}
}

// ReadIntHash serves a point lookup during the apply: the private clone
// when the writer holds one, the base's index otherwise — which misses
// no row of the batch, since NoteAppend clones every resident index of a
// relation it appends to. An index neither holds is built privately
// from the writer's relation.
func (d *IndexDelta) ReadIntHash(rel *relation.Relation, col string) *IntHash {
	key := ColumnKey{rel.Name, col}
	if h := d.ints[key]; h != nil {
		return h
	}
	if h := d.base.ints[key]; h != nil {
		return h
	}
	h := BuildIntHash(rel, col)
	d.ints[key] = h
	return h
}

// NoteAppend maintains every index of rel this writer holds or the base
// holds for row, which must be rel's last row: on its first write into
// a base index, the writer clones it — or, once its key table has passed
// the fold rule, builds it afresh from rel (BuildIntHash, which already
// indexes row), charged to the writer's generation.
func (d *IndexDelta) NoteAppend(rel *relation.Relation, row int) {
	for _, col := range rel.Columns() {
		if col.Type == relation.Float || col.IsNull(row) {
			continue
		}
		key := ColumnKey{rel.Name, col.Name}
		h := d.ints[key]
		if h == nil {
			b := d.base.ints[key]
			if b == nil {
				continue
			}
			if b.keysDue() {
				h = BuildIntHash(rel, col.Name)
				built, _ := h.residentBytes()
				d.gen.Charge(int(built))
				d.ints[key] = h
				continue // the build indexed row
			}
			h = b.Clone(d.gen)
			d.ints[key] = h
		}
		h.Insert(cellKey(col, row), row)
	}
}

// MergeInto builds the next epoch's IndexSet from the current one plus
// this delta: every base entry, with the writer's clones and private
// builds laid over them. Everything else is shared structurally.
func (d *IndexDelta) MergeInto(cur *IndexSet) *IndexSet {
	next := &IndexSet{ints: make(map[ColumnKey]*IntHash, len(cur.ints)+len(d.ints))}
	maps.Copy(next.ints, cur.ints)
	maps.Copy(next.ints, d.ints)
	return next
}
