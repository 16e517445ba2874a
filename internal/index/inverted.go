// Package index provides the indexing substrate SQuID relies on: an
// inverted column index over all text attributes (used for entity lookup,
// §5 of the paper), hash indexes for key/foreign-key point lookups during
// abduction, and sorted column indexes used for numeric selectivity
// computation in the abduction-ready database.
package index

import (
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"squid/internal/relation"
)

// Posting locates one occurrence of a text value: relation, column, row.
// It is the decoded form Lookup returns; the index itself stores a
// posting as one 8-byte (text-column ordinal, row) pair.
type Posting struct {
	Relation string
	Column   string
	Row      int
}

// Inverted is one epoch's inverted column index: it maps every distinct
// text value (normalized) of every TEXT column of the base relations to
// its postings. SQuID consults it to map user-provided example strings
// to candidate entities.
//
// It is a key table over posting lists, as a hash index is (hash.go):
// the key table maps a normalized value to its list ordinal, and the
// lists are a Postings[uint64] of (text-column ordinal, row) pairs — 8
// bytes a posting. An epoch holds exactly its own postings, so a reader
// takes no lock and filters nothing; a writer clones the index once per
// batch (Clone), posts the batch's cells into the clone and publishes it
// with its epoch.
type Inverted struct {
	// cols names the text columns by ordinal: every TEXT column of every
	// relation, in relation order, then column order.
	cols  []ColumnKey
	keys  keyTable[string]
	lists Postings[uint64]
}

// posting packs a text-column ordinal and a row into one list element:
// the order of the packed words is (column, row), the order of a build.
func posting(col uint32, row int) uint64 { return uint64(col)<<32 | uint64(uint32(row)) }

// BuildInvertedParallel builds the inverted index — the αDB build and
// the snapshot load both call it — with per-relation shards fanned over
// a bounded worker pool. Columns are dictionary-encoded: each distinct
// value is normalized once per column, and the per-row work is a code
// lookup. The shards are then numbered, sized and placed into one flat
// array in relation order, so every list comes out ascending.
func BuildInvertedParallel(db *relation.Database, workers int) *Inverted {
	names := db.RelationNames()
	inv := &Inverted{keys: keyTable[string]{base: make(map[string]uint32)}}
	first := make([]uint32, len(names))
	for i, name := range names {
		first[i] = uint32(len(inv.cols))
		for _, col := range db.Relation(name).Columns() {
			if col.Type == relation.String {
				inv.cols = append(inv.cols, ColumnKey{name, col.Name})
			}
		}
	}
	shards := make([]map[string][]uint64, len(names))
	RunBounded(len(names), workers, func(i int) {
		shards[i] = invertRelation(first[i], db.Relation(names[i]))
	})
	offs := []uint32{0}
	for _, shard := range shards {
		for key, ps := range shard {
			k, ok := inv.keys.base[key]
			if !ok {
				k = uint32(len(offs) - 1)
				inv.keys.base[key] = k
				offs = append(offs, 0)
			}
			offs[k+1] += uint32(len(ps))
		}
	}
	for k := 1; k < len(offs); k++ {
		offs[k] += offs[k-1]
	}
	flat := make([]uint64, offs[len(offs)-1])
	next := slices.Clone(offs[:len(offs)-1])
	for _, shard := range shards {
		for key, ps := range shard {
			k := inv.keys.base[key]
			next[k] += uint32(copy(flat[next[k]:], ps))
		}
	}
	inv.lists = PostingsOf(offs, flat)
	return inv
}

// invertRelation builds the posting shard of one relation, whose first
// text column has ordinal first.
func invertRelation(first uint32, rel *relation.Relation) map[string][]uint64 {
	shard := make(map[string][]uint64)
	ord := first
	for _, col := range rel.Columns() {
		if col.Type != relation.String {
			continue
		}
		norm := normalizedDict(col.Dict())
		for row := 0; row < col.Len(); row++ {
			if col.IsNull(row) {
				continue
			}
			key := norm[col.Code(row)]
			shard[key] = append(shard[key], posting(ord, row))
		}
		ord++
	}
	return shard
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

// RunBounded executes fn(0..n-1) over a worker pool of the given size
// (≤ 1 means inline). It is the minimal fan-out primitive shared by the
// parallel inverted-index build, the αDB's parallel offline phase and
// squid.System.DiscoverBatch.
func RunBounded(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// normalize canonicalizes a lookup string: lower-case, trimmed,
// inner whitespace collapsed — strings.Join(strings.Fields(
// strings.ToLower(s)), " "), byte for byte. A string already in that
// form (the keys themselves, most dictionary values of a lower-case
// column) is returned as it is; any other is rebuilt in one pass.
func normalize(s string) string {
	i := normalPrefix(s)
	if i == len(s) {
		return s
	}
	return string(appendNormalized(make([]byte, 0, len(s)), s, i))
}

// normalPrefix returns how far s is in normal form already: len(s) when
// all of it is, else an index normalization can resume from — before the
// space the normal prefix ends on, if it does, which is then normalized
// with what follows it.
func normalPrefix(s string) int {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' || '\t' <= c && c <= '\r':
			if i > 0 && s[i-1] == ' ' {
				return i - 1
			}
			return i
		case c == ' ' && (i == 0 || i == len(s)-1 || s[i+1] == ' '):
			return i
		}
	}
	return len(s)
}

// appendNormalized appends the normal form of s, whose first from bytes
// are in normal form already (normalPrefix), to dst.
func appendNormalized(dst []byte, s string, from int) []byte {
	start := len(dst)
	dst = append(dst, s[:from]...)
	sep := false
	// Ranging decodes invalid UTF-8 to utf8.RuneError, which is written
	// out as U+FFFD: what strings.ToLower makes of it.
	for _, r := range s[from:] {
		if unicode.IsSpace(r) {
			sep = len(dst) > start
			continue
		}
		if sep {
			dst = append(dst, ' ')
			sep = false
		}
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}

// list returns the list ordinal of the (normalized) value, -1 when the
// index does not hold it. A value that has to be normalized first is
// normalized into a stack buffer the maps are probed with directly, so a
// lookup allocates nothing.
func (inv *Inverted) list(value string) int {
	var k uint32
	var ok bool
	if from := normalPrefix(value); from == len(value) {
		k, ok = inv.keys.get(value)
	} else {
		var buf [64]byte
		key := appendNormalized(buf[:0], value, from)
		if k, ok = inv.keys.base[string(key)]; !ok && len(inv.keys.tail) != 0 {
			k, ok = inv.keys.tail[string(key)]
		}
	}
	if !ok {
		return -1
	}
	return int(k)
}

// Lookup returns the postings of the (normalized) value, decoded.
func (inv *Inverted) Lookup(value string) []Posting {
	base, tail := inv.lists.Rows(inv.list(value))
	out := make([]Posting, 0, len(base)+len(tail))
	for _, run := range [2][]uint64{base, tail} {
		for _, p := range run {
			c := inv.cols[p>>32]
			out = append(out, Posting{Relation: c.Relation, Column: c.Column, Row: int(uint32(p))})
		}
	}
	return out
}

// Insert posts the TEXT cell value of relation rel's column col at row
// (αDB maintenance on inserts, into the writer's clone).
func (inv *Inverted) Insert(rel, col, value string, row int) {
	c := slices.Index(inv.cols, ColumnKey{rel, col})
	if c < 0 {
		panic("index: " + rel + "." + col + " is not an indexed text column")
	}
	key := normalize(value)
	k, ok := inv.keys.get(key)
	if !ok {
		k = uint32(inv.lists.Len())
		inv.keys.add(key, k)
	}
	inv.lists.AddRow(int(k), posting(uint32(c), row))
}

// Clone returns a copy-on-write clone for one writer generation: the
// posting lists clone as Postings do, and the key table as keyTable
// does. What it copies is charged to g.
func (inv *Inverted) Clone(g *relation.Gen) *Inverted {
	return &Inverted{cols: inv.cols, keys: inv.keys.clone(g, len(inv.keys.base)), lists: inv.lists.Clone(g)}
}

// NumKeys returns the number of distinct indexed values.
func (inv *Inverted) NumKeys() int { return len(inv.keys.base) + len(inv.keys.tail) }

// ResidentBytes returns what the index holds, counted from lengths: the
// key maps (a key string is the dictionary's own where the value was in
// normal form already, and is not counted) and the posting lists, base
// and tail.
func (inv *Inverted) ResidentBytes() int64 {
	base, tail := inv.lists.ResidentBytes()
	kb, kt := inv.keys.residentBytes()
	return base + tail + kb + kt
}

// ColumnKey identifies a (relation, column) pair.
type ColumnKey struct {
	Relation string
	Column   string
}

// CommonColumns returns the (relation, column) pairs that contain ALL of
// the given values, i.e. the candidate projection attributes for a set of
// example tuples, sorted deterministically. For each pair it also reports
// per-value row candidates (for disambiguation).
//
// The rows are bucketed by a small slot per column (no map, no key
// hashing, one ordinal compared a posting), two passes over the
// postings: one sizes the buckets, one fills them.
func (inv *Inverted) CommonColumns(values []string) []ColumnMatch {
	n := len(values)
	if n == 0 {
		return nil
	}
	// The list of each value, and its base and tail runs: Rows(-1) is
	// empty.
	lists := make([]int32, n)
	for i, v := range values {
		lists[i] = int32(inv.list(v))
	}
	runs := func(i int) [2][]uint64 {
		base, tail := inv.lists.Rows(int(lists[i]))
		return [2][]uint64{base, tail}
	}
	// Only a column the first value occurs in can hold them all: those
	// columns — a handful — get slots in posting order.
	var cols []uint32
	for _, run := range runs(0) {
		for _, p := range run {
			if !slices.Contains(cols, uint32(p>>32)) {
				cols = append(cols, uint32(p>>32))
			}
		}
	}
	if len(cols) == 0 {
		return nil
	}
	// sizes[k*n+i] counts the rows of value i in column k; a column some
	// value misses is dead.
	sizes := make([]int, len(cols)*n)
	total := 0
	for i := range lists {
		for _, run := range runs(i) {
			for _, p := range run {
				if k := slices.Index(cols, uint32(p>>32)); k >= 0 {
					sizes[k*n+i]++
					total++
				}
			}
		}
	}
	// Every list is carved from one array, at its exact size.
	rows := make([][]int, len(cols)*n)
	backing := make([]int, total)
	for j, size := range sizes {
		rows[j], backing = backing[:0:size], backing[size:]
	}
	for i := range lists {
		for _, run := range runs(i) {
			for _, p := range run {
				if k := slices.Index(cols, uint32(p>>32)); k >= 0 {
					rows[k*n+i] = append(rows[k*n+i], int(uint32(p)))
				}
			}
		}
	}
	var out []ColumnMatch
	for k, c := range cols {
		if !slices.Contains(sizes[k*n:(k+1)*n], 0) {
			out = append(out, ColumnMatch{Key: inv.cols[c], Rows: rows[k*n : (k+1)*n : (k+1)*n]})
		}
	}
	slices.SortFunc(out, func(a, b ColumnMatch) int {
		if c := strings.Compare(a.Key.Relation, b.Key.Relation); c != 0 {
			return c
		}
		return strings.Compare(a.Key.Column, b.Key.Column)
	})
	return out
}

// ColumnMatch reports that all example values occur in Key; Rows[i] lists
// the candidate rows for example value i (|Rows[i]| > 1 means the value is
// ambiguous and needs disambiguation).
type ColumnMatch struct {
	Key  ColumnKey
	Rows [][]int
}

// Ambiguous reports whether any example value maps to more than one row.
func (m ColumnMatch) Ambiguous() bool {
	for _, r := range m.Rows {
		if len(r) > 1 {
			return true
		}
	}
	return false
}
