package index

import (
	"math"
	"slices"

	"squid/internal/relation"
)

// A hash index is layered: an immutable base shared by every epoch since
// the last fold, plus a small private tail — a Go map holding the full
// posting list of each key inserted since.
//
// The base is flat. Every posting lives in one []uint32 array (RowSet's
// row width), grouped by key and ascending within a key, and a key finds
// its run in one of two forms:
//
//   - dense (IntHash only): a direct-address table offs over [lo, hi],
//     key k's run being post[offs[k-lo]:offs[k-lo+1]] — 4 bytes a slot
//     and a bounds check instead of a hash. Taken when the key range is
//     at most denseSlack slots a key, which every primary-key,
//     foreign-key and derived entity_id column is;
//   - sparse: a map from key to an 8-byte span (sparse integers, every
//     StrHash).
//
// The form is chosen from the key range alone, at every bulk build and
// every fold. Bulk builds are a two-pass counting sort with exact sizes.
// A lookup probes the tail (when non-empty), then the base. An insert's
// first touch of a key copies the key's base run into the tail; Clone
// copies only the tail map, and folds base and tail into a fresh flat
// base once the tail holds more than 1/foldDiv of the keys, so a publish
// pays for the keys it touched (amortized O(foldDiv) per inserted key),
// never for the index. What a clone or fold copies is charged to the
// writer's Gen from the lengths it allocated.
const (
	foldDiv = 32
	// foldMin keeps a tail over a small or empty base from folding on
	// every clone.
	foldMin = 64
	// denseSlack is the most direct-address slots a key may cost: at 4
	// bytes a slot that is 16 bytes a key at worst, under what a map
	// entry with an 8-byte span costs at best.
	denseSlack = 4
	// noKey is the ordinal of a row the index skips (a NULL cell).
	noKey = math.MaxUint32
)

// span locates one key's run in the posting array.
type span struct{ off, n uint32 }

// layered is the shared core of IntHash and StrHash: the posting array,
// the sparse form of the base, and the tail.
type layered[K comparable] struct {
	post  []uint32
	spans map[K]span
	tail  map[K][]uint32
	keys  int // distinct keys across base and tail
}

// run cuts post[a:b], capped so that an append can never reach the next
// run; nil when empty.
func (h *layered[K]) run(a, b uint32) []uint32 {
	if a == b {
		return nil
	}
	return h.post[a:b:b]
}

// tailRun returns k's list in the tail and whether the tail holds k.
func (h *layered[K]) tailRun(k K) ([]uint32, bool) {
	if len(h.tail) == 0 {
		return nil, false
	}
	r, ok := h.tail[k]
	return r, ok
}

func (h *layered[K]) sparseRun(k K) []uint32 {
	s := h.spans[k]
	return h.run(s.off, s.off+s.n)
}

// sparseRuns yields every key of the sparse form with its run.
func (h *layered[K]) sparseRuns(yield func(K, []uint32)) {
	for k, s := range h.spans {
		yield(k, h.run(s.off, s.off+s.n))
	}
}

// insert appends row to k's posting list; baseRun is k's run in the
// base, copied into the tail on the key's first touch since the fold.
// A tail list is shared with retired generations and only ever grows
// past their lengths (see Chunked.Append for why that is invisible to
// them).
func (h *layered[K]) insert(k K, row int, baseRun []uint32) {
	rows, ok := h.tail[k]
	if !ok {
		if rows = baseRun; rows == nil {
			h.keys++
		}
		if h.tail == nil {
			h.tail = make(map[K][]uint32)
		}
	}
	h.tail[k] = append(rows, uint32(row))
}

// shouldFold reports whether a clone rebuilds the base instead of
// copying the tail.
func (h *layered[K]) shouldFold() bool {
	n := len(h.tail)
	return n >= foldMin && n*foldDiv > h.keys
}

// cloneTail copies the tail map (the lists stay shared) and charges it
// to g.
func (h *layered[K]) cloneTail(g *Gen) map[K][]uint32 {
	n := len(h.tail)
	if n == 0 {
		return nil
	}
	t := make(map[K][]uint32, n+1)
	for k, v := range h.tail {
		t[k] = v
	}
	g.charge(int(relation.MapBytes(n+1, elemSize[K]()+elemSize[[]uint32]())))
	return t
}

// merged yields every key once with its full posting list: the base
// runs the tail does not override, then the tail.
func (h *layered[K]) merged(baseRuns func(func(K, []uint32)), yield func(K, []uint32)) {
	baseRuns(func(k K, run []uint32) {
		if _, ok := h.tail[k]; !ok {
			yield(k, run)
		}
	})
	for k, rows := range h.tail {
		yield(k, rows)
	}
}

// foldSparse lays base and tail out as a fresh sparse base.
func (h *layered[K]) foldSparse(g *Gen, baseRuns func(func(K, []uint32))) layered[K] {
	total := 0
	h.merged(baseRuns, func(_ K, rows []uint32) { total += len(rows) })
	q := layered[K]{post: make([]uint32, 0, total), spans: make(map[K]span, h.keys), keys: h.keys}
	h.merged(baseRuns, func(k K, rows []uint32) {
		q.spans[k] = span{uint32(len(q.post)), uint32(len(rows))}
		q.post = append(q.post, rows...)
	})
	g.charge(total*4 + int(q.spanBytes()))
	return q
}

func (h *layered[K]) spanBytes() int64 {
	return relation.MapBytes(len(h.spans), elemSize[K]()+elemSize[span]())
}

// residentBytes returns the bytes held by the base (posting array and
// sparse map; the caller adds its direct-address table and key
// strings) and by the tail (map and lists).
func (h *layered[K]) residentBytes() (base, tail int64) {
	base = int64(len(h.post))*4 + h.spanBytes()
	if len(h.tail) != 0 {
		tail = relation.MapBytes(len(h.tail), elemSize[K]()+elemSize[[]uint32]())
		for _, rows := range h.tail {
			tail += int64(cap(rows)) * 4
		}
	}
	return base, tail
}

// spansOf turns the run boundaries groupRows returns into the sparse
// form: ids maps each key to its ordinal.
func spansOf[K comparable](ids map[K]uint32, offs []uint32) map[K]span {
	spans := make(map[K]span, len(ids))
	for k, id := range ids {
		spans[k] = span{offs[id], offs[id+1] - offs[id]}
	}
	return spans
}

// groupRows is the counting sort of a bulk build. ords[row] is the key
// ordinal of row, noKey to skip it; the result is the rows grouped by
// ordinal, ascending within each, and the numKeys+1 run boundaries.
func groupRows(ords []uint32, numKeys int) (post, offs []uint32) {
	offs = make([]uint32, numKeys+1)
	for _, o := range ords {
		if o != noKey {
			offs[o+1]++
		}
	}
	for i := 1; i <= numKeys; i++ {
		offs[i] += offs[i-1]
	}
	post = make([]uint32, offs[numKeys])
	next := slices.Clone(offs[:numKeys])
	for row, o := range ords {
		if o != noKey {
			post[next[o]] = uint32(row)
			next[o]++
		}
	}
	return post, offs
}

// IntHash is a hash index from an integer column's values to row numbers;
// it serves the key/foreign-key point lookups the abduction phase issues
// (the paper uses PostgreSQL B-tree indexes for the same role). The zero
// value is an empty index ready for Insert.
type IntHash struct {
	layered[int64]
	// offs is the dense form's direct-address table, len hi-lo+2; nil in
	// the sparse form.
	offs []uint32
	// lo and hi are the smallest and largest base key (meaningless while
	// the base is empty).
	lo, hi int64
}

// isDense reports whether a base of keys keys spanning [lo, hi] takes
// the direct-address form. The range is computed unsigned, so keys near
// both int64 extremes cannot wrap it.
func isDense(lo, hi int64, keys int) bool {
	rng := uint64(hi) - uint64(lo)
	return rng < 1<<31 && rng < denseSlack*uint64(keys)
}

// BuildIntHash indexes the named integer column of rel in two counting
// passes: the posting array and the table over it are allocated once at
// their exact sizes (no per-key slice, no append slack), and rows stay
// ascending within a key. Warm boots rebuild every hash index through
// this path.
func BuildIntHash(rel *relation.Relation, col string) *IntHash {
	c := rel.Column(col)
	if c == nil || c.Type != relation.Int {
		return &IntHash{}
	}
	n := c.Len()
	h := &IntHash{}
	rows := 0
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			continue
		}
		v := c.Int64(i)
		if rows == 0 || v < h.lo {
			h.lo = v
		}
		if rows == 0 || v > h.hi {
			h.hi = v
		}
		rows++
	}
	if rows == 0 {
		return h
	}
	ords := make([]uint32, n)
	// A range no wider than denseSlack slots a row is cheap to count
	// into directly, and only then can it be dense: keys ≤ rows.
	if isDense(h.lo, h.hi, rows) {
		for i := range ords {
			ords[i] = noKey
			if !c.IsNull(i) {
				ords[i] = uint32(uint64(c.Int64(i)) - uint64(h.lo))
			}
		}
		post, offs := groupRows(ords, int(uint64(h.hi)-uint64(h.lo))+1)
		keys := 0
		for i := 0; i+1 < len(offs); i++ {
			if offs[i] != offs[i+1] {
				keys++
			}
		}
		if isDense(h.lo, h.hi, keys) {
			h.post, h.offs, h.keys = post, offs, keys
			return h
		}
	}
	// Sparse: number the keys by first appearance (one map probe a run
	// of equal values, not one a row).
	ids := make(map[int64]uint32)
	for i := 0; i < n; i++ {
		ords[i] = noKey
		if c.IsNull(i) {
			continue
		}
		v := c.Int64(i)
		if i > 0 && ords[i-1] != noKey && c.Int64(i-1) == v {
			ords[i] = ords[i-1]
			continue
		}
		id, ok := ids[v]
		if !ok {
			id = uint32(len(ids))
			ids[v] = id
		}
		ords[i] = id
	}
	post, offs := groupRows(ords, len(ids))
	h.post, h.keys, h.spans = post, len(ids), spansOf(ids, offs)
	return h
}

// baseRun returns v's run in the base (nil if absent).
func (h *IntHash) baseRun(v int64) []uint32 {
	if h.offs == nil {
		return h.sparseRun(v)
	}
	if v < h.lo || v > h.hi {
		return nil
	}
	i := uint64(v) - uint64(h.lo)
	return h.run(h.offs[i], h.offs[i+1])
}

// baseRuns yields every base key with its run.
func (h *IntHash) baseRuns(yield func(int64, []uint32)) {
	if h.offs == nil {
		h.sparseRuns(yield)
		return
	}
	for i := 0; i+1 < len(h.offs); i++ {
		if run := h.run(h.offs[i], h.offs[i+1]); run != nil {
			yield(h.lo+int64(i), run)
		}
	}
}

// Rows returns the rows holding value v, ascending (nil if absent); do
// not mutate.
func (h *IntHash) Rows(v int64) []uint32 {
	if r, ok := h.tailRun(v); ok {
		return r
	}
	return h.baseRun(v)
}

// First returns the first row holding value v and whether one exists;
// this is the primary-key point-lookup fast path.
func (h *IntHash) First(v int64) (int, bool) {
	r := h.Rows(v)
	if len(r) == 0 {
		return 0, false
	}
	return int(r[0]), true
}

// NumKeys returns the number of distinct indexed values.
func (h *IntHash) NumKeys() int { return h.keys }

// Insert adds one (value, row) posting incrementally; rows must be
// appended in ascending order so posting lists stay sorted.
func (h *IntHash) Insert(v int64, row int) { h.insert(v, row, h.baseRun(v)) }

// Clone returns a copy-on-write clone for epoch maintenance: the base
// is shared and only the tail map is copied — or, past the fold
// threshold, base and tail are laid out as a fresh base in whichever
// form the widened key range now takes. Appends on the clone write only
// past the original tail lists' lengths, so readers of the original
// never observe them.
func (h *IntHash) Clone(g *Gen) *IntHash {
	if !h.shouldFold() {
		q := *h
		q.tail = h.cloneTail(g)
		return &q
	}
	lo, hi, empty := h.lo, h.hi, len(h.post) == 0
	for k := range h.tail {
		if empty || k < lo {
			lo = k
		}
		if empty || k > hi {
			hi = k
		}
		empty = false
	}
	if !isDense(lo, hi, h.keys) {
		return &IntHash{layered: h.foldSparse(g, h.baseRuns), lo: lo, hi: hi}
	}
	// Count, offset, place — the base runs first, then the tail lists
	// over them: a tail list begins with its key's base run, so no key
	// needs a probe to tell which of the two it takes.
	slots := int(uint64(hi)-uint64(lo)) + 1
	q := &IntHash{lo: lo, hi: hi, offs: make([]uint32, slots+1)}
	slot := func(k int64) uint64 { return uint64(k) - uint64(lo) }
	h.baseRuns(func(k int64, run []uint32) { q.offs[slot(k)+1] = uint32(len(run)) })
	for k, rows := range h.tail {
		q.offs[slot(k)+1] = uint32(len(rows))
	}
	for i := 1; i <= slots; i++ {
		q.offs[i] += q.offs[i-1]
	}
	q.keys, q.post = h.keys, make([]uint32, q.offs[slots])
	h.baseRuns(func(k int64, run []uint32) { copy(q.post[q.offs[slot(k)]:], run) })
	for k, rows := range h.tail {
		copy(q.post[q.offs[slot(k)]:], rows)
	}
	g.charge(4 * (len(q.post) + len(q.offs)))
	return q
}

// residentBytes returns the bytes of the base and of the tail.
func (h *IntHash) residentBytes() (base, tail int64) {
	base, tail = h.layered.residentBytes()
	return base + int64(len(h.offs))*4, tail
}

// StrHash is a hash index from a string column's (normalized) values to
// row numbers; its base is always sparse. The zero value is an empty
// index ready for Insert.
type StrHash struct {
	layered[string]
}

// BuildStrHash indexes the named string column of rel. The column is
// dictionary-encoded, so each distinct value is normalized exactly once
// and the counting sort runs over dictionary codes: values that
// normalize alike share one key ordinal, and the per-row work is two
// table lookups, no string and no map.
func BuildStrHash(rel *relation.Relation, col string) *StrHash {
	c := rel.Column(col)
	if c == nil || c.Type != relation.String {
		return &StrHash{}
	}
	norm := normalizedDict(c.Dict())
	// ordOf[code] is the key ordinal of the code's normalized value,
	// assigned on the code's first row.
	ordOf := make([]uint32, len(norm))
	for i := range ordOf {
		ordOf[i] = noKey
	}
	ids := make(map[string]uint32)
	ords := make([]uint32, c.Len())
	for row := range ords {
		ords[row] = noKey
		if c.IsNull(row) {
			continue
		}
		code := c.Code(row)
		if ordOf[code] == noKey {
			id, ok := ids[norm[code]]
			if !ok {
				id = uint32(len(ids))
				ids[norm[code]] = id
			}
			ordOf[code] = id
		}
		ords[row] = ordOf[code]
	}
	post, offs := groupRows(ords, len(ids))
	return &StrHash{layered[string]{post: post, keys: len(ids), spans: spansOf(ids, offs)}}
}

// normalizedDict precomputes normalize for every dictionary code.
func normalizedDict(d *relation.Dict) []string {
	vals := d.Values()
	norm := make([]string, len(vals))
	for i, v := range vals {
		norm[i] = normalize(v)
	}
	return norm
}

// Rows returns the rows holding the (normalized) value, ascending (nil
// if absent); do not mutate.
func (h *StrHash) Rows(v string) []uint32 {
	key := normalize(v)
	if r, ok := h.tailRun(key); ok {
		return r
	}
	return h.sparseRun(key)
}

// NumKeys returns the number of distinct indexed values.
func (h *StrHash) NumKeys() int { return h.keys }

// Insert adds one (value, row) posting incrementally; rows must be
// appended in ascending order so posting lists stay sorted.
func (h *StrHash) Insert(v string, row int) {
	key := normalize(v)
	h.insert(key, row, h.sparseRun(key))
}

// Clone returns a copy-on-write clone (see IntHash.Clone).
func (h *StrHash) Clone(g *Gen) *StrHash {
	if !h.shouldFold() {
		q := *h
		q.tail = h.cloneTail(g)
		return &q
	}
	return &StrHash{h.foldSparse(g, h.sparseRuns)}
}

// residentBytes returns the bytes of the base and of the tail, with the
// key strings normalization allocated (in 8-byte size classes).
func (h *StrHash) residentBytes() (base, tail int64) {
	base, tail = h.layered.residentBytes()
	for k := range h.spans {
		base += int64(len(k)+7) &^ 7
	}
	for k := range h.tail {
		if _, ok := h.spans[k]; !ok {
			tail += int64(len(k)+7) &^ 7
		}
	}
	return base, tail
}
