package index

import (
	"squid/internal/relation"
)

// A hash index is layered: an immutable base map shared by every epoch
// since the last fold, plus a small private tail holding the full
// posting list of each key inserted since. A lookup is one probe while
// the tail is empty and two otherwise; Clone copies only the tail, and
// folds base and tail into a fresh right-sized base once the tail
// passes 1/foldDiv of it, so a publish pays for the keys it touched
// (amortized O(foldDiv) map writes per inserted key), never for the
// index.
const (
	foldDiv = 8
	// foldMin keeps a tail over a small or empty base from folding on
	// every clone.
	foldMin = 64
	// mapEntryBytes is the accounting size of one map entry (key,
	// posting-list header, bucket overhead).
	mapEntryBytes = 48
)

// layered is the shared core of IntHash and StrHash.
type layered[K comparable] struct {
	base map[K][]int
	tail map[K][]int
	keys int // distinct keys across base and tail
}

func (h *layered[K]) rows(k K) []int {
	if len(h.tail) != 0 {
		if r, ok := h.tail[k]; ok {
			return r
		}
	}
	return h.base[k]
}

// insert appends row to k's posting list. The list is shared with the
// base and with retired generations and only ever grows past their
// lengths (see Chunked.Append for why that is invisible to them).
func (h *layered[K]) insert(k K, row int) {
	rows, ok := h.tail[k]
	if !ok {
		if rows, ok = h.base[k]; !ok {
			h.keys++
		}
		if h.tail == nil {
			h.tail = make(map[K][]int)
		}
	}
	h.tail[k] = append(rows, row)
}

// clone charges what it copies to g (see Gen.Copied).
func (h *layered[K]) clone(g *Gen) layered[K] {
	q := layered[K]{base: h.base, keys: h.keys}
	switch n := len(h.tail); {
	case n >= foldMin && n*foldDiv > len(h.base):
		q.base = make(map[K][]int, h.keys)
		for k, v := range h.base {
			q.base[k] = v
		}
		for k, v := range h.tail {
			q.base[k] = v
		}
		g.charge(h.keys * mapEntryBytes)
	case n > 0:
		q.tail = make(map[K][]int, n+1)
		for k, v := range h.tail {
			q.tail[k] = v
		}
		g.charge(n * mapEntryBytes)
	}
	return q
}

// IntHash is a hash index from an integer column's values to row numbers;
// it serves the key/foreign-key point lookups the abduction phase issues
// (the paper uses PostgreSQL B-tree indexes for the same role).
type IntHash struct {
	layered[int64]
}

// BuildIntHash indexes the named integer column of rel. The map is
// presized to the number of value runs — exact for unique key columns
// and for the clustered entity ids of derived relations, where the row
// count would oversize it several times over — and posting lists are
// capacity-capped runs of one shared backing array, so bulk builds
// allocate O(1) slices instead of one per key. Warm boots rebuild every
// hash index through this path.
func BuildIntHash(rel *relation.Relation, col string) *IntHash {
	c := rel.Column(col)
	if c == nil || c.Type != relation.Int {
		return &IntHash{}
	}
	n := c.Len()
	runs := 0
	for i := 0; i < n; i++ {
		if !c.IsNull(i) && (i == 0 || c.IsNull(i-1) || c.Int64(i-1) != c.Int64(i)) {
			runs++
		}
	}
	base := make(map[int64][]int, runs)
	backing := make([]int, n)
	for i := range backing {
		backing[i] = i
	}
	for i := 0; i < n; {
		if c.IsNull(i) {
			i++
			continue
		}
		v := c.Int64(i)
		j := i + 1
		for j < n && !c.IsNull(j) && c.Int64(j) == v {
			j++
		}
		if existing := base[v]; existing == nil {
			// Capped at the run end: a later Insert reallocates
			// instead of clobbering the next run.
			base[v] = backing[i:j:j]
		} else {
			base[v] = append(existing, backing[i:j]...)
		}
		i = j
	}
	return &IntHash{layered[int64]{base: base, keys: len(base)}}
}

// Rows returns the rows holding value v (nil if absent).
func (h *IntHash) Rows(v int64) []int { return h.rows(v) }

// First returns the first row holding value v and whether one exists;
// this is the primary-key point-lookup fast path.
func (h *IntHash) First(v int64) (int, bool) {
	r := h.rows(v)
	if len(r) == 0 {
		return 0, false
	}
	return r[0], true
}

// NumKeys returns the number of distinct indexed values.
func (h *IntHash) NumKeys() int { return h.keys }

// Insert adds one (value, row) posting incrementally; rows must be
// appended in ascending order so posting lists stay sorted.
func (h *IntHash) Insert(v int64, row int) { h.insert(v, row) }

// Clone returns a copy-on-write clone for epoch maintenance: the base
// map and every posting list are shared, only the tail is copied (or
// folded, see layered). Appends on the clone write only past the
// original lists' lengths, so readers of the original never observe
// them.
func (h *IntHash) Clone(g *Gen) *IntHash { return &IntHash{h.clone(g)} }

// StrHash is a hash index from a string column's (normalized) values to
// row numbers.
type StrHash struct {
	layered[string]
}

// BuildStrHash indexes the named string column of rel. The column is
// dictionary-encoded, so each distinct value is normalized exactly once
// (a table indexed by dictionary code) and the per-row work is an int32
// table lookup instead of a string normalization.
func BuildStrHash(rel *relation.Relation, col string) *StrHash {
	c := rel.Column(col)
	if c == nil || c.Type != relation.String {
		return &StrHash{}
	}
	norm := normalizedDict(c.Dict())
	base := make(map[string][]int)
	for row := 0; row < c.Len(); row++ {
		if c.IsNull(row) {
			continue
		}
		key := norm[c.Code(row)]
		base[key] = append(base[key], row)
	}
	return &StrHash{layered[string]{base: base, keys: len(base)}}
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

// Rows returns the rows holding the (normalized) value.
func (h *StrHash) Rows(v string) []int { return h.rows(normalize(v)) }

// NumKeys returns the number of distinct indexed values.
func (h *StrHash) NumKeys() int { return h.keys }

// Insert adds one (value, row) posting incrementally; rows must be
// appended in ascending order so posting lists stay sorted.
func (h *StrHash) Insert(v string, row int) { h.insert(normalize(v), row) }

// Clone returns a copy-on-write clone (see IntHash.Clone).
func (h *StrHash) Clone(g *Gen) *StrHash { return &StrHash{h.clone(g)} }
