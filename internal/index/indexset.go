package index

import (
	"sort"
	"sync"

	"squid/internal/relation"
)

// IndexSet is a registry of hash indexes keyed by (relation, column).
// It is the per-epoch index view of the online pipeline: every point
// lookup that used to rebuild an ad-hoc hash map (dimension resolution
// during incremental maintenance, point-predicate pushdown in the
// engine) instead asks the set, which builds each index at most once
// and serves all later lookups from the shared copy.
//
// Epoch semantics: each published αDB epoch owns one IndexSet view.
// The indexes themselves are immutable once visible to readers; a
// copy-on-write writer accumulates privatized shard clones in an
// IndexDelta and the publish step merges them into the next epoch's
// view (MergeInto), structurally sharing every untouched index and the
// base layer of every touched one. The internal lock only serializes the
// lazy first build of a cold index (double-checked locking), so readers
// of warm indexes never block.
type IndexSet struct {
	mu   sync.RWMutex
	ints map[ColumnKey]*IntHash
	strs map[ColumnKey]*StrHash
	nums map[ColumnKey]*NumericRows
}

// NewIndexSet creates an empty index set.
func NewIndexSet() *IndexSet {
	return &IndexSet{
		ints: make(map[ColumnKey]*IntHash),
		strs: make(map[ColumnKey]*StrHash),
		nums: make(map[ColumnKey]*NumericRows),
	}
}

// IntHash returns the shared hash index over the named integer column of
// rel, building it on first use.
func (s *IndexSet) IntHash(rel *relation.Relation, col string) *IntHash {
	key := ColumnKey{rel.Name, col}
	s.mu.RLock()
	h := s.ints[key]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.ints[key]; h == nil {
		h = BuildIntHash(rel, col)
		s.ints[key] = h
	}
	return h
}

// StrHash returns the shared hash index over the named string column of
// rel, building it on first use.
func (s *IndexSet) StrHash(rel *relation.Relation, col string) *StrHash {
	key := ColumnKey{rel.Name, col}
	s.mu.RLock()
	h := s.strs[key]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.strs[key]; h == nil {
		h = BuildStrHash(rel, col)
		s.strs[key] = h
	}
	return h
}

// Numeric returns the shared sorted value→row index over the named
// numeric (Int or Float) column of rel, building it on first use; it
// backs the engine's range-predicate pushdown.
func (s *IndexSet) Numeric(rel *relation.Relation, col string) *NumericRows {
	key := ColumnKey{rel.Name, col}
	s.mu.RLock()
	n := s.nums[key]
	s.mu.RUnlock()
	if n != nil {
		return n
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n = s.nums[key]; n == nil {
		n = buildNumericRowsFromColumn(rel.Column(col))
		s.nums[key] = n
	}
	return n
}

// AdoptIntHash registers a pre-built hash index under (relName, col),
// replacing any existing entry. The parallel αDB build constructs derived
// -relation indexes worker-locally and adopts them into the shared pool
// once the relation's final name is fixed.
func (s *IndexSet) AdoptIntHash(relName, col string, h *IntHash) {
	s.mu.Lock()
	s.ints[ColumnKey{relName, col}] = h
	s.mu.Unlock()
}

// ResidentIntHash returns the hash index over the named integer column
// if this view already holds one and nil otherwise; unlike IntHash it
// never builds. The engine probes a join column's index only when one
// is resident, so executing a query cannot grow the epoch's index pool
// by its joins.
func (s *IndexSet) ResidentIntHash(rel *relation.Relation, col string) *IntHash {
	h, _, _ := s.peek(ColumnKey{rel.Name, col})
	return h
}

// ResidentNumeric is ResidentIntHash for the sorted value→row index.
func (s *IndexSet) ResidentNumeric(rel *relation.Relation, col string) *NumericRows {
	_, _, n := s.peek(ColumnKey{rel.Name, col})
	return n
}

// peek returns the materialized indexes at key without building.
func (s *IndexSet) peek(key ColumnKey) (*IntHash, *StrHash, *NumericRows) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ints[key], s.strs[key], s.nums[key]
}

// NumIndexes reports how many hash indexes have been materialized.
func (s *IndexSet) NumIndexes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ints) + len(s.strs)
}

// ResidentBytes reports what the materialized indexes hold, counted
// from their lengths and element widths: the hash indexes' flat bases,
// their tails, and the sorted numeric indexes.
func (s *IndexSet) ResidentBytes() (hashBase, hashTail, numeric int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, h := range s.ints {
		b, t := h.residentBytes()
		hashBase, hashTail = hashBase+b, hashTail+t
	}
	for _, h := range s.strs {
		b, t := h.residentBytes()
		hashBase, hashTail = hashBase+b, hashTail+t
	}
	for _, n := range s.nums {
		numeric += 16 * int64(len(n.vals)+cap(n.tailVals))
	}
	return hashBase, hashTail, numeric
}

// IndexDelta accumulates one copy-on-write writer's index changes
// against a base epoch's IndexSet: the first touch of a shard clones it
// (a copy of its tail — the keys inserted since its last fold — never
// of the index), later touches mutate the private clone in place, and
// MergeInto swaps the clones into the next epoch's view. Reads during
// the apply see the private clone when one exists and the immutable
// base otherwise, so a batch observes its own earlier rows.
type IndexDelta struct {
	base    *IndexSet
	ints    map[ColumnKey]*IntHash
	strs    map[ColumnKey]*StrHash
	nums    map[ColumnKey]*NumericRows
	dropped map[ColumnKey]bool
	touched map[string]bool // relations whose rows this writer changed
	gen     *Gen            // the writer's generation: charged for every shard clone
}

// NewIndexDelta starts an empty delta over the base epoch's view for
// the writer generation g.
func NewIndexDelta(base *IndexSet, g *Gen) *IndexDelta {
	return &IndexDelta{
		base:    base,
		gen:     g,
		ints:    make(map[ColumnKey]*IntHash),
		strs:    make(map[ColumnKey]*StrHash),
		nums:    make(map[ColumnKey]*NumericRows),
		dropped: make(map[ColumnKey]bool),
		touched: make(map[string]bool),
	}
}

// ReadIntHash serves a point-lookup during the apply: the private
// clone when the writer already touched the shard; the base view for
// an untouched relation (lazily building there is safe — rel aliases
// the base's own relation then). For a relation this writer already
// appended to, a missing shard is built privately from the writer's
// relation instead: building into the base view from the private clone
// would leak post-batch rows into the retired epoch, and a base-built
// index would miss the batch's own rows.
func (d *IndexDelta) ReadIntHash(rel *relation.Relation, col string) *IntHash {
	key := ColumnKey{rel.Name, col}
	if h := d.ints[key]; h != nil {
		return h
	}
	if !d.touched[rel.Name] && !d.dropped[key] {
		return d.base.IntHash(rel, col)
	}
	h := BuildIntHash(rel, col)
	d.ints[key] = h
	return h
}

// touch marks rel as changed by this writer. On the first touch no row
// has been appended yet, so every index of rel resident in the base
// view is complete: all of them are adopted (tail-cloned) there, and the
// publish merge carries them into the next epoch. An index that appears
// in the base view later was lazily built by a concurrent base-epoch
// reader and may miss this batch's rows — it is left uncovered, so the
// merge drops it and the next epoch rebuilds it lazily from the
// post-batch relation.
func (d *IndexDelta) touch(rel *relation.Relation) {
	if d.touched[rel.Name] {
		return
	}
	d.touched[rel.Name] = true
	for _, col := range rel.Columns() {
		key := ColumnKey{rel.Name, col.Name}
		if d.dropped[key] {
			// A dropped index stays dropped: cloning the base's copy
			// now would resurrect the pre-mutation state.
			continue
		}
		bi, bs, bn := d.base.peek(key)
		if bi != nil && d.ints[key] == nil {
			d.ints[key] = bi.Clone(d.gen)
		}
		if bs != nil && d.strs[key] == nil {
			d.strs[key] = bs.Clone(d.gen)
		}
		if bn != nil && d.nums[key] == nil {
			d.nums[key] = bn.Clone(d.gen)
		}
	}
}

// PrivateIntHash returns the writer's private clone of the (rel, col)
// hash index, for a writer about to change rel: the first touch adopts
// every resident index of rel (see touch); an index the base never
// materialized — or that this writer dropped — is built fresh from the
// writer's relation (never lazily into the base view, see ReadIntHash).
func (d *IndexDelta) PrivateIntHash(rel *relation.Relation, col string) *IntHash {
	d.touch(rel)
	key := ColumnKey{rel.Name, col}
	h := d.ints[key]
	if h == nil {
		h = BuildIntHash(rel, col)
		d.ints[key] = h
	}
	return h
}

// NoteAppend maintains every index of rel this writer holds — adopted
// from the base view on the first touch (see touch) or built privately
// since — for the row that was just appended.
func (d *IndexDelta) NoteAppend(rel *relation.Relation, row int) {
	d.touch(rel)
	for _, col := range rel.Columns() {
		if col.IsNull(row) {
			continue
		}
		key := ColumnKey{rel.Name, col.Name}
		switch col.Type {
		case relation.Int:
			if h := d.ints[key]; h != nil {
				h.Insert(col.Int64(row), row)
			}
		case relation.String:
			if h := d.strs[key]; h != nil {
				h.Insert(col.Str(row), row)
			}
		}
		if n := d.nums[key]; n != nil {
			d.nums[key] = n.Insert(col.Float64(row), row)
		}
	}
}

// Drop discards the indexes of one column in the next epoch (a cell of
// that column was overwritten on the writer's private relation). The
// relation's other indexes are unaffected: a cells-only update touches
// no other column.
func (d *IndexDelta) Drop(relName, col string) {
	key := ColumnKey{relName, col}
	d.dropped[key] = true
	delete(d.ints, key)
	delete(d.strs, key)
	delete(d.nums, key)
}

// MergeInto builds the next epoch's IndexSet from the current one plus
// this delta: privatized shards replace their base entries, dropped
// keys vanish, and — crucially — any index of a touched relation that
// the delta does not cover is omitted rather than inherited, because a
// reader may have lazily built it from the pre-append rows concurrently
// (it rebuilds lazily from the new relation on first use). Everything
// else is shared structurally.
func (d *IndexDelta) MergeInto(cur *IndexSet) *IndexSet {
	keep := func(key ColumnKey) bool {
		return !d.dropped[key] && !d.touched[key.Relation]
	}
	next := NewIndexSet()
	cur.mu.RLock()
	for key, h := range cur.ints {
		if keep(key) {
			next.ints[key] = h
		}
	}
	for key, h := range cur.strs {
		if keep(key) {
			next.strs[key] = h
		}
	}
	for key, n := range cur.nums {
		if keep(key) {
			next.nums[key] = n
		}
	}
	cur.mu.RUnlock()
	for key, h := range d.ints {
		next.ints[key] = h
	}
	for key, h := range d.strs {
		next.strs[key] = h
	}
	for key, n := range d.nums {
		next.nums[key] = n
	}
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

// buildNumericRowsFromColumn indexes the non-NULL cells of a numeric
// column (Int cells are widened to float64).
func buildNumericRowsFromColumn(c *relation.Column) *NumericRows {
	n := &NumericRows{}
	if c == nil || c.Type == relation.String {
		return n
	}
	for row := 0; row < c.Len(); row++ {
		if c.IsNull(row) {
			continue
		}
		n.vals = append(n.vals, c.Float64(row))
		n.rows = append(n.rows, row)
	}
	n.sortPairs(0, len(n.vals))
	return n
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
