package index

import (
	"maps"
	"math"
	"unsafe"

	"squid/internal/relation"
)

const (
	// foldDiv and foldMin are the fold rule (foldDue) of every layered
	// structure of the package. Once a tail holds at least foldMin
	// entries and more than 1/foldDiv of the base, a Postings tail folds
	// into a fresh base, and a hash index with such a key-table tail is
	// rebuilt — so the base is paid for amortized O(foldDiv) per inserted
	// entry, never per publish, and a tail over a small or empty base
	// does not fold on every clone.
	foldDiv = 32
	foldMin = 64
	// denseSlack is the most window slots a key may cost: at 4 bytes an
	// offset that is 16 bytes a key at worst, under what a key map entry
	// costs at best.
	denseSlack = 4
	// noKey is the ordinal of a row the index skips (a NULL cell).
	noKey = math.MaxUint32
)

// foldDue reports whether a tail of added entries over a base of base
// entries has passed the fold rule.
func foldDue(added, base int) bool { return added >= foldMin && added*foldDiv > base }

// keyTable maps a key to its list ordinal, for IntHash: an immutable
// base shared by every epoch since the index was built, and a tail of
// the keys added since (nil when none), which a clone copies.
type keyTable struct {
	base, tail map[int64]uint32
}

// keySlotBytes is one map entry of a keyTable, padding included.
const keySlotBytes = int(unsafe.Sizeof(struct {
	k int64
	o uint32
}{}))

func (t *keyTable) get(k int64) (uint32, bool) {
	if o, ok := t.base[k]; ok {
		return o, true
	}
	if len(t.tail) == 0 {
		return 0, false
	}
	o, ok := t.tail[k]
	return o, ok
}

func (t *keyTable) add(k int64, o uint32) {
	if t.tail == nil {
		t.tail = make(map[int64]uint32)
	}
	t.tail[k] = o
}

// clone returns the table of a writer's clone: the base shared and the
// tail copied, charged to g.
func (t *keyTable) clone(g *relation.Gen) keyTable {
	if len(t.tail) == 0 {
		return *t
	}
	g.Charge(int(relation.MapBytes(len(t.tail), keySlotBytes)))
	return keyTable{base: t.base, tail: maps.Clone(t.tail)}
}

// residentBytes returns the bytes of the base map and of the tail map
// (not what a key points to).
func (t *keyTable) residentBytes() (base, tail int64) {
	return relation.MapBytes(len(t.base), keySlotBytes), relation.MapBytes(len(t.tail), keySlotBytes)
}

// groupRows is the counting sort of a bulk build. ords[row] is the key
// ordinal of row, noKey to skip it; the result is the rows grouped by
// ordinal, a Postings base over the rows of ords (ascending within each
// run), and the number of ordinals holding a row.
func groupRows(ords []uint32, numKeys int) (lists Postings, keys int) {
	sizes := make([]uint32, numKeys+1)
	for _, o := range ords {
		if o != noKey {
			sizes[o+1]++
		}
	}
	for _, c := range sizes[1:] {
		if c > 0 {
			keys++
		}
	}
	b := NewPostingsBuilder(sizes, len(ords))
	for row, o := range ords {
		if o != noKey {
			b.Add(int(o), uint32(row))
		}
	}
	return b.Postings(), keys
}

// IntHash is a hash index from an integer column's values to row numbers;
// it serves the key/foreign-key point lookups the abduction phase issues
// (the paper uses PostgreSQL B-tree indexes for the same role). Over a
// TEXT column it maps the dictionary codes to rows: entity lookup's
// (CommonColumns). The zero value is an empty index ready for Insert.
//
// It is a key table over Postings: a key finds its list
// ordinal, and the list is a layered posting list (lists.go). A key
// finds its ordinal in one of two places:
//
//   - a dense window [lo, lo+width) fixed at build: key k's
//     ordinal is k−lo, found with one unsigned compare and no hash. It is
//     taken when the key range is at most denseSlack slots a key, which
//     every primary-key, foreign-key and TEXT column is;
//   - the key table: in the sparse form (width 0) every key, and in
//     either form the keys added since the fold that fall outside the
//     window, with ordinals handed out past it.
//
// Either form's base is a Postings base over the relation's rows, laid
// out once at its exact size (groupRows): a key that holds more than
// one row in 32 is a bitmap, every other key a run of its rows.
//
// An insert appends its row to the key's list and copies nothing of the
// base. Clone copies the key table's tail and clones the lists, which
// fold on their own and keep their ordinals. The key table never folds
// in place: once its tail passes the fold rule (keysDue), a writer's
// IndexDelta rebuilds the index from its column with BuildIntHash, in
// the form the widened key range now takes.
type IntHash struct {
	lo    int64
	width uint64
	ords  keyTable
	lists Postings
	// keys counts the distinct keys.
	keys int
}

// isDense reports whether keys keys spanning [lo, hi] take the window.
// The range is computed unsigned, so keys near both int64 extremes
// cannot wrap it.
func isDense(lo, hi int64, keys int) bool {
	rng := uint64(hi) - uint64(lo)
	return rng < 1<<31 && rng < denseSlack*uint64(keys)
}

// cellKey is the key of cell row of an INTEGER column, or of a TEXT
// one: its dictionary code.
func cellKey(c *relation.Column, row int) int64 {
	if c.Type == relation.String {
		return int64(c.Code(row))
	}
	return c.Int64(row)
}

// keyBlock fills keys with the keys cellKey reads from the cells of c
// from row at on: an INTEGER column's decoded in one loop
// (Column.ReadInt64s).
func keyBlock(c *relation.Column, keys []int64, at int) {
	if c.Type == relation.String {
		for i := range keys {
			keys[i] = int64(c.Code(at + i))
		}
		return
	}
	c.ReadInt64s(keys, at)
}

// BuildIntHash indexes the named INTEGER column of rel by its values,
// or the named TEXT column by its dictionary codes. Its first pass reads
// the key range; two counting passes (groupRows) then allocate the
// lists once, at their exact sizes (no per-key slice, no append slack),
// each a bitmap or a run of rows ascending by the layout rule of
// Postings. Each pass reads the keys a block at a time into a buffer on
// the stack (keyBlock). Warm boots rebuild every hash index through this
// path.
func BuildIntHash(rel *relation.Relation, col string) *IntHash {
	c := rel.Column(col)
	if c == nil || c.Type == relation.Float {
		return &IntHash{}
	}
	n := c.Len()
	var buf [256]int64
	var lo, hi int64
	rows := 0
	for at := 0; at < n; at += len(buf) {
		keys := buf[:min(len(buf), n-at)]
		keyBlock(c, keys, at)
		for i, v := range keys {
			if c.IsNull(at + i) {
				continue
			}
			if rows == 0 || v < lo {
				lo = v
			}
			if rows == 0 || v > hi {
				hi = v
			}
			rows++
		}
	}
	if rows == 0 {
		return &IntHash{}
	}
	ords := make([]uint32, n)
	// A range no wider than denseSlack slots a row is cheap to count
	// into directly, and only then can it be dense: keys ≤ rows.
	if isDense(lo, hi, rows) {
		for at := 0; at < n; at += len(buf) {
			keys := buf[:min(len(buf), n-at)]
			keyBlock(c, keys, at)
			for i, v := range keys {
				ords[at+i] = noKey
				if !c.IsNull(at + i) {
					ords[at+i] = uint32(uint64(v) - uint64(lo))
				}
			}
		}
		width := uint64(hi) - uint64(lo) + 1
		if lists, keys := groupRows(ords, int(width)); isDense(lo, hi, keys) {
			return &IntHash{lo: lo, width: width, lists: lists, keys: keys}
		}
	}
	// Sparse: number the keys by first appearance (one map probe a run
	// of equal values, not one a row); the numbering is the key table.
	ids := make(map[int64]uint32)
	var prev int64 // the key of the last non-NULL row
	for at := 0; at < n; at += len(buf) {
		keys := buf[:min(len(buf), n-at)]
		keyBlock(c, keys, at)
		for i, v := range keys {
			row := at + i
			ords[row] = noKey
			if c.IsNull(row) {
				continue
			}
			if row > 0 && ords[row-1] != noKey && prev == v {
				ords[row] = ords[row-1]
				continue
			}
			prev = v
			id, ok := ids[v]
			if !ok {
				id = uint32(len(ids))
				ids[v] = id
			}
			ords[row] = id
		}
	}
	lists, _ := groupRows(ords, len(ids))
	return &IntHash{ords: keyTable{base: ids}, lists: lists, keys: len(ids)}
}

// ord returns v's list ordinal and whether the index has one for it.
func (h *IntHash) ord(v int64) (int, bool) {
	if i := uint64(v) - uint64(h.lo); i < h.width {
		return int(i), true
	}
	o, ok := h.ords.get(v)
	return int(o), ok
}

// Rows returns the list of the rows holding value v (empty if absent):
// the base's ascending, then the rows inserted since the fold, all newer
// than the base's. The view is shared storage: do not mutate.
func (h *IntHash) Rows(v int64) List {
	o, ok := h.ord(v)
	if !ok {
		return List{}
	}
	return h.lists.Rows(o)
}

// First returns the first row holding value v and whether one exists;
// this is the primary-key point-lookup fast path: a one-row list is
// never a bitmap, so it is one read of the run.
func (h *IntHash) First(v int64) (int, bool) {
	o, ok := h.ord(v)
	if !ok {
		return 0, false
	}
	r, ok := h.lists.First(o)
	return int(r), ok
}

// NumKeys returns the number of distinct indexed values.
func (h *IntHash) NumKeys() int { return h.keys }

// Insert adds one (value, row) posting incrementally; rows must be
// appended in ascending order so posting lists stay sorted.
func (h *IntHash) Insert(v int64, row int) {
	o, ok := h.ord(v)
	if !ok {
		o = h.lists.Len()
		h.ords.add(v, uint32(o))
	}
	if h.lists.Count(o) == 0 {
		h.keys++
	}
	h.lists.AddRow(o, uint32(row))
}

// keysDue reports whether the key table's tail has passed the fold rule,
// weighed against the keys the index holds outside it (the dense
// window's count there): the writer then rebuilds the index rather
// than clone it (IndexDelta.NoteAppend).
func (h *IntHash) keysDue() bool {
	return foldDue(len(h.ords.tail), h.keys-len(h.ords.tail))
}

// Clone returns a copy-on-write clone for one writer generation: the
// window, the key table's base and the lists' base are shared, the key
// table's tail is copied and the lists clone as Postings do. Appends on
// the clone write only past the lengths the original holds, so readers
// of the original never observe them.
func (h *IntHash) Clone(g *relation.Gen) *IntHash {
	q := *h
	q.ords = h.ords.clone(g)
	q.lists = h.lists.Clone(g)
	return &q
}

// residentBytes returns the bytes of the base and of the tail: the key
// table's maps and the lists'.
func (h *IntHash) residentBytes() (base, tail int64) {
	base, tail = h.lists.ResidentBytes()
	kb, kt := h.ords.residentBytes()
	return base + kb, tail + kt
}
