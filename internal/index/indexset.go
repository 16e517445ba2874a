package index

import (
	"maps"
	"sort"

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
	base    *IndexSet
	ints    map[ColumnKey]*IntHash
	dropped map[ColumnKey]bool
	gen     *Gen // the writer's generation: charged for every clone
}

// NewIndexDelta starts an empty delta over the base epoch's set for the
// writer generation g.
func NewIndexDelta(base *IndexSet, g *Gen) *IndexDelta {
	return &IndexDelta{
		base:    base,
		gen:     g,
		ints:    make(map[ColumnKey]*IntHash),
		dropped: make(map[ColumnKey]bool),
	}
}

// resident returns the base set's index at key unless this writer
// dropped it.
func (d *IndexDelta) resident(key ColumnKey) *IntHash {
	if d.dropped[key] {
		return nil
	}
	return d.base.ints[key]
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
	if h := d.resident(key); h != nil {
		return h
	}
	return d.PrivateIntHash(rel, col)
}

// PrivateIntHash returns the writer's own (rel, col) hash index, for a
// writer about to change rel: the clone of the resident one, or — when
// the base lacks it or this writer dropped it — one built fresh from the
// writer's relation.
func (d *IndexDelta) PrivateIntHash(rel *relation.Relation, col string) *IntHash {
	key := ColumnKey{rel.Name, col}
	if h := d.ints[key]; h != nil {
		return h
	}
	h := d.resident(key)
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
		if d.ints[key] != nil || d.resident(key) != nil {
			d.PrivateIntHash(rel, col.Name).Insert(col.Int64(row), row)
		}
	}
}

// Drop discards the index of one column in the next epoch (a cell of
// that column was overwritten on the writer's private relation). The
// relation's other indexes are unaffected: a cells-only update touches
// no other column.
func (d *IndexDelta) Drop(relName, col string) {
	key := ColumnKey{relName, col}
	d.dropped[key] = true
	delete(d.ints, key)
}

// MergeInto builds the next epoch's IndexSet from the current one plus
// this delta: every base entry the delta did not drop, with the writer's
// clones and private builds laid over them. Everything else is shared
// structurally.
func (d *IndexDelta) MergeInto(cur *IndexSet) *IndexSet {
	next := &IndexSet{ints: make(map[ColumnKey]*IntHash, len(cur.ints)+len(d.ints))}
	for key, h := range cur.ints {
		if !d.dropped[key] {
			next.ints[key] = h
		}
	}
	maps.Copy(next.ints, d.ints)
	return next
}

// NumericRows is a sorted (value, row) index over a numeric column: it
// answers "which rows fall in [lo, hi]" in O(log n + k) instead of a
// full column scan, backing the numeric range filters of the online
// phase. Values are sorted; rows ride along.
//
// Like the hash indexes it is layered: the base arrays are immutable
// and shared across epochs, inserts land in a small sorted tail that
// Clone copies (or folds into a fresh base past 1/foldDiv of it), and
// every question is answered from both — two binary searches instead
// of one while the tail is non-empty.
type NumericRows struct {
	vals []float64
	rows []int
	// tailVals/tailRows hold the pairs inserted since the last fold,
	// sorted by value; private to this generation.
	tailVals []float64
	tailRows []int
}

// BuildNumericRows builds the index from parallel value/row slices
// (typically the non-NULL cells of one column). The inputs are copied.
func BuildNumericRows(vals []float64, rows []int) *NumericRows {
	n := &NumericRows{
		vals: append([]float64(nil), vals...),
		rows: append([]int(nil), rows...),
	}
	n.sortPairs(0, len(n.vals))
	return n
}

// sortPairs sorts vals[lo:hi] and rows[lo:hi] together by value: a
// binary-insertion sort for short runs, an index permutation through
// the stdlib sort for long ones.
func (n *NumericRows) sortPairs(lo, hi int) {
	if hi-lo > 64 {
		n.permSort(lo, hi)
		return
	}
	for i := lo + 1; i < hi; i++ {
		v, r := n.vals[i], n.rows[i]
		j := i
		for j > lo && n.vals[j-1] > v {
			n.vals[j], n.rows[j] = n.vals[j-1], n.rows[j-1]
			j--
		}
		n.vals[j], n.rows[j] = v, r
	}
}

// permSort sorts the pair slices via an index permutation using the
// stdlib sort (O(n log n)).
func (n *NumericRows) permSort(lo, hi int) {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	sort.Slice(idx, func(a, b int) bool { return n.vals[idx[a]] < n.vals[idx[b]] })
	vals := make([]float64, hi-lo)
	rows := make([]int, hi-lo)
	for i, p := range idx {
		vals[i], rows[i] = n.vals[p], n.rows[p]
	}
	copy(n.vals[lo:hi], vals)
	copy(n.rows[lo:hi], rows)
}

// Len returns the number of indexed (value, row) pairs.
func (n *NumericRows) Len() int { return len(n.vals) + len(n.tailVals) }

// Min returns the smallest indexed value (0 when empty).
func (n *NumericRows) Min() float64 {
	switch {
	case len(n.tailVals) == 0 && len(n.vals) == 0:
		return 0
	case len(n.tailVals) == 0:
		return n.vals[0]
	case len(n.vals) == 0:
		return n.tailVals[0]
	}
	return min(n.vals[0], n.tailVals[0])
}

// Max returns the largest indexed value (0 when empty).
func (n *NumericRows) Max() float64 {
	switch {
	case len(n.tailVals) == 0 && len(n.vals) == 0:
		return 0
	case len(n.tailVals) == 0:
		return n.vals[len(n.vals)-1]
	case len(n.vals) == 0:
		return n.tailVals[len(n.tailVals)-1]
	}
	return max(n.vals[len(n.vals)-1], n.tailVals[len(n.tailVals)-1])
}

// merged merges base and tail into fresh arrays. On equal values the
// tail's pair goes first — where a single sorted array would have put
// the later insert.
func (n *NumericRows) merged() ([]float64, []int) {
	total := n.Len()
	vals, rows := make([]float64, 0, total), make([]int, 0, total)
	i := 0
	for j, tv := range n.tailVals {
		k := i + searchFloat(n.vals[i:], tv)
		vals, rows = append(vals, n.vals[i:k]...), append(rows, n.rows[i:k]...)
		vals, rows = append(vals, tv), append(rows, n.tailRows[j])
		i = k
	}
	return append(vals, n.vals[i:]...), append(rows, n.rows[i:]...)
}

// spans returns the base and tail index ranges holding values in
// [lo, hi].
func (n *NumericRows) spans(lo, hi float64) (from, to, tfrom, tto int) {
	from, to = searchFloat(n.vals, lo), searchFloatAfter(n.vals, hi)
	if len(n.tailVals) != 0 {
		tfrom, tto = searchFloat(n.tailVals, lo), searchFloatAfter(n.tailVals, hi)
	}
	return
}

// RowsInRange returns the rows whose value lies in the closed interval
// [lo, hi], sorted ascending by row number.
func (n *NumericRows) RowsInRange(lo, hi float64) []int {
	if hi < lo {
		return nil
	}
	from, to, tfrom, tto := n.spans(lo, hi)
	if from >= to && tfrom >= tto {
		return nil
	}
	out := make([]int, 0, to-from+tto-tfrom)
	out = append(append(out, n.rows[from:to]...), n.tailRows[tfrom:tto]...)
	sort.Ints(out)
	return out
}

// AddRangeToSet adds every row whose value lies in [lo, hi] to the set,
// which the caller sized by CountRange. The rows ride the value order,
// so they reach the set unsorted: a dense set takes them as plain bit
// sets, about a nanosecond a member while its words stay cache-resident,
// and a sparse one (at most two members per 64-row word of the
// universe) sorts them once — O(log n + k) and O(log n + k log k), with
// no per-row insertion shuffle and no growth.
func (n *NumericRows) AddRangeToSet(lo, hi float64, s *RowSet) {
	if hi < lo {
		return
	}
	from, to, tfrom, tto := n.spans(lo, hi)
	s.AddInts(n.rows[from:to])
	if tfrom < tto {
		s.AddInts(n.tailRows[tfrom:tto])
	}
}

// CountRange returns |{rows : lo ≤ value ≤ hi}| in O(log n).
func (n *NumericRows) CountRange(lo, hi float64) int {
	if hi < lo {
		return 0
	}
	from, to, tfrom, tto := n.spans(lo, hi)
	return to - from + tto - tfrom
}

// Clone returns a copy-on-write clone for epoch maintenance: the base
// arrays are shared, the tail — the only part Insert shifts in place —
// is copied, or folded into a fresh base once it passes 1/foldDiv of
// the old one; what it copies is charged to g.
func (n *NumericRows) Clone(g *Gen) *NumericRows {
	if n == nil {
		return nil
	}
	q := &NumericRows{vals: n.vals, rows: n.rows}
	switch t := len(n.tailVals); {
	case t >= foldMin && t*foldDiv > len(n.vals):
		q.vals, q.rows = n.merged()
		g.charge(len(q.vals) * 16)
	case t > 0:
		q.tailVals = append(make([]float64, 0, t+1), n.tailVals...)
		q.tailRows = append(make([]int, 0, t+1), n.tailRows...)
		g.charge(t * 16)
	}
	return q
}

// Insert adds one (value, row) pair to the tail, keeping its value
// order (αDB incremental maintenance). A nil receiver allocates a fresh
// index.
func (n *NumericRows) Insert(v float64, row int) *NumericRows {
	if n == nil {
		n = &NumericRows{}
	}
	pos := searchFloat(n.tailVals, v)
	n.tailVals = append(n.tailVals, 0)
	n.tailRows = append(n.tailRows, 0)
	copy(n.tailVals[pos+1:], n.tailVals[pos:])
	copy(n.tailRows[pos+1:], n.tailRows[pos:])
	n.tailVals[pos], n.tailRows[pos] = v, row
	return n
}

// searchFloat returns the first index i with xs[i] >= v.
func searchFloat(xs []float64, v float64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchFloatAfter returns the first index i with xs[i] > v.
func searchFloatAfter(xs []float64, v float64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
