package index

import (
	"maps"

	"squid/internal/relation"
)

// IndexSet is an epoch's resident hash indexes, keyed by (relation,
// column): the integer primary key of every relation that is not a fact
// and every foreign-key column of a fact relation (Build and Load build
// both before anything reads them), the entity_id column of every
// derived relation, and any index a writer built for itself and
// published since. Once its epoch is published the set is fixed: it has
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
// they build, derived relations' included.
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
// lengths and element widths: the flat bases and the tails.
func (s *IndexSet) ResidentBytes() (base, tail int64) {
	for _, h := range s.ints {
		b, t := h.residentBytes()
		base, tail = base+b, tail+t
	}
	return base, tail
}

// IndexDelta accumulates one copy-on-write writer's index changes
// against a base epoch's IndexSet: the first write into a resident index
// clones it (a copy of its key table's tail — the keys added since its
// last fold — and one pointer per 64 lists, never of the index), later
// writes mutate the private clone in place, and MergeInto lays the
// clones over the base set. An index the base lacks is built privately
// from the writer's relation. Reads during the apply see the private
// clone when one exists and the immutable base otherwise, so a batch
// observes its own earlier rows.
type IndexDelta struct {
	base *IndexSet
	ints map[ColumnKey]*IntHash
	gen  *Gen // the writer's generation: charged for every clone
}

// NewIndexDelta starts an empty delta over the base epoch's set for the
// writer generation g.
func NewIndexDelta(base *IndexSet, g *Gen) *IndexDelta {
	return &IndexDelta{base: base, gen: g, ints: make(map[ColumnKey]*IntHash)}
}

// ReadIntHash serves a point lookup during the apply: the private clone
// when the writer holds one, the base's index otherwise — which misses
// no row of the batch, since NoteAppend clones every resident index of a
// relation it appends to. An index neither holds is built privately
// (PrivateIntHash).
func (d *IndexDelta) ReadIntHash(rel *relation.Relation, col string) *IntHash {
	key := ColumnKey{rel.Name, col}
	if h := d.ints[key]; h != nil {
		return h
	}
	if h := d.base.ints[key]; h != nil {
		return h
	}
	return d.PrivateIntHash(rel, col)
}

// PrivateIntHash returns the writer's own (rel, col) hash index, for a
// writer about to change rel: the clone of the resident one, or — when
// the base lacks it — one built fresh from the writer's relation.
func (d *IndexDelta) PrivateIntHash(rel *relation.Relation, col string) *IntHash {
	key := ColumnKey{rel.Name, col}
	if h := d.ints[key]; h != nil {
		return h
	}
	h := d.base.ints[key]
	if h != nil {
		h = h.Clone(d.gen)
	} else {
		h = BuildIntHash(rel, col)
	}
	d.ints[key] = h
	return h
}

// NoteAppend maintains every index of rel this writer holds or the base
// holds for the row that was just appended.
func (d *IndexDelta) NoteAppend(rel *relation.Relation, row int) {
	for _, col := range rel.Columns() {
		if col.Type != relation.Int || col.IsNull(row) {
			continue
		}
		key := ColumnKey{rel.Name, col.Name}
		if d.ints[key] != nil || d.base.ints[key] != nil {
			d.PrivateIntHash(rel, col.Name).Insert(col.Int64(row), row)
		}
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
