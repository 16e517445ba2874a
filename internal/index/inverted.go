// Package index provides the indexing substrate SQuID relies on: a global
// inverted column index over all text attributes (used for entity lookup,
// §5 of the paper), hash indexes for key/foreign-key point lookups during
// abduction, and sorted column indexes used for numeric selectivity
// computation in the abduction-ready database.
package index

import (
	"math"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"squid/internal/relation"
)

// Posting locates one occurrence of a text value: relation, column, row.
type Posting struct {
	Relation string
	Column   string
	Row      int
}

// RowLimit bounds an epoch-pinned inverted-index read: postings with
// Row ≥ limit(Relation) belong to rows appended after the reader's
// epoch was published and are filtered out, so a discovery never
// resolves examples to rows it cannot otherwise see.
type RowLimit func(relName string) int

// Inverted is the global inverted column index: it maps every distinct
// text value (case-folded) appearing in any indexed column to its
// postings. SQuID consults it to map user-provided example strings to
// candidate entities.
//
// Concurrency: the index is append-only and internally synchronized,
// and — like the column dictionaries — it is shared across copy-on-write
// epochs instead of cloned (cloning the whole posting map per insert
// batch would dwarf the batch itself). Epoch isolation is restored at
// read time: postings carry monotonically growing row numbers, so a
// reader pinned to an epoch filters with the epoch's per-relation row
// counts (RowLimit) and observes exactly the postings that existed when
// its epoch was published.
type Inverted struct {
	mu       sync.RWMutex
	postings map[string][]Posting
}

// BuildInvertedParallel builds the inverted index — the αDB build and
// the snapshot load both call it — with per-relation shards fanned over
// a bounded worker pool, then merges the shards in relation order, so
// the posting lists are byte-identical to a serial build. Columns are
// dictionary-encoded: each distinct value is normalized once per column,
// and the per-row work is a code lookup. The merged lists are laid out
// at exact size in one backing array; each key's list is a
// capacity-capped view, so a later Insert copies the list out instead of
// clobbering its neighbor.
func BuildInvertedParallel(db *relation.Database, workers int) *Inverted {
	names := db.RelationNames()
	shards := make([]map[string][]Posting, len(names))
	RunBounded(len(names), workers, func(i int) {
		shards[i] = invertRelation(names[i], db.Relation(names[i]))
	})
	sizes := make(map[string]int)
	total := 0
	for _, shard := range shards {
		for key, ps := range shard {
			sizes[key] += len(ps)
			total += len(ps)
		}
	}
	backing := make([]Posting, total)
	inv := &Inverted{postings: make(map[string][]Posting, len(sizes))}
	off := 0
	for key, n := range sizes {
		inv.postings[key] = backing[off : off : off+n]
		off += n
	}
	for _, shard := range shards {
		for key, ps := range shard {
			inv.postings[key] = append(inv.postings[key], ps...)
		}
	}
	return inv
}

// invertRelation builds the posting shard of one relation.
func invertRelation(name string, rel *relation.Relation) map[string][]Posting {
	shard := make(map[string][]Posting)
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
			shard[key] = append(shard[key], Posting{
				Relation: name, Column: col.Name, Row: row,
			})
		}
	}
	return shard
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

// Lookup returns all postings of the (normalized) value, with no epoch
// filtering; single-writer offline consumers (tests, the αDB build) use
// it. Online readers go through LookupBelow. A value that has to be
// normalized first is normalized into a stack buffer the map is probed
// with directly, so a lookup allocates nothing.
func (inv *Inverted) Lookup(value string) []Posting {
	var buf [64]byte
	var key []byte
	from := normalPrefix(value)
	if from < len(value) {
		key = appendNormalized(buf[:0], value, from)
	}
	inv.mu.RLock()
	var ps []Posting
	if from == len(value) {
		ps = inv.postings[value]
	} else {
		ps = inv.postings[string(key)]
	}
	inv.mu.RUnlock()
	return ps
}

// LookupBelow returns the postings of the value whose rows existed in
// the caller's epoch (Row < limit(Relation)). Posting lists are
// append-only, so the prefix below the limit is immutable and the
// result needs no copy unless filtering actually drops entries.
func (inv *Inverted) LookupBelow(value string, limit RowLimit) []Posting {
	return filterPostings(inv.Lookup(value), limit)
}

func filterPostings(ps []Posting, limit RowLimit) []Posting {
	if limit == nil {
		return ps
	}
	for i, p := range ps {
		if p.Row >= limit(p.Relation) {
			// First filtered posting: copy the surviving prefix and
			// sieve the rest (appends from different relations may
			// interleave, so later postings can still qualify).
			out := append([]Posting(nil), ps[:i]...)
			for _, q := range ps[i+1:] {
				if q.Row < limit(q.Relation) {
					out = append(out, q)
				}
			}
			return out
		}
	}
	return ps
}

// Insert adds one posting incrementally (αDB maintenance on inserts).
// The lock orders the append against concurrent lookups (writers are
// already serialized by the αDB's write lock); the posting becomes
// visible to epoch-pinned readers only once an epoch whose row count
// covers it is published.
func (inv *Inverted) Insert(value string, p Posting) {
	key := normalize(value)
	inv.mu.Lock()
	inv.postings[key] = append(inv.postings[key], p)
	inv.mu.Unlock()
}

// NumKeys returns the number of distinct indexed values.
func (inv *Inverted) NumKeys() int {
	inv.mu.RLock()
	n := len(inv.postings)
	inv.mu.RUnlock()
	return n
}

// ColumnKey identifies a (relation, column) pair.
type ColumnKey struct {
	Relation string
	Column   string
}

// CommonColumns returns the (relation, column) pairs that contain ALL of
// the given values, i.e. the candidate projection attributes for a set of
// example tuples, sorted deterministically. For each pair it also reports
// per-value row candidates (for disambiguation). A non-nil limit pins the
// lookup to an epoch: rows appended after it are invisible.
//
// The rows are bucketed by a small column ordinal (no map, no key
// hashing), two passes over the postings: one sizes the buckets, one
// fills them.
func (inv *Inverted) CommonColumns(values []string, limit RowLimit) []ColumnMatch {
	if len(values) == 0 {
		return nil
	}
	// Only a column the first value occurs in can hold them all: those
	// columns — a handful — get ordinals in posting order, each with the
	// epoch's row limit of its relation.
	type keyColumn struct {
		ColumnKey
		limit int
	}
	var keys []keyColumn
	ordinal := func(p Posting) int {
		for k := range keys {
			if keys[k].Column == p.Column && keys[k].Relation == p.Relation {
				return k
			}
		}
		return -1
	}
	n := len(values)
	postings := make([][]Posting, n)
	for i, v := range values {
		postings[i] = inv.Lookup(v)
	}
	for _, p := range postings[0] {
		if ordinal(p) >= 0 {
			continue
		}
		lim := math.MaxInt
		if limit != nil {
			lim = limit(p.Relation)
		}
		if p.Row < lim {
			keys = append(keys, keyColumn{ColumnKey{p.Relation, p.Column}, lim})
		}
	}
	if len(keys) == 0 {
		return nil
	}
	// visible reports the ordinal of a posting this lookup counts: in one
	// of the key columns, at a row the epoch has.
	visible := func(p Posting) (int, bool) {
		k := ordinal(p)
		return k, k >= 0 && p.Row < keys[k].limit
	}
	// sizes[k*n+i] counts the rows of value i in column k; a column some
	// value misses is dead.
	sizes := make([]int, len(keys)*n)
	total := 0
	for i, ps := range postings {
		for _, p := range ps {
			if k, ok := visible(p); ok {
				sizes[k*n+i]++
				total++
			}
		}
	}
	// Every list is carved from one array, at its exact size.
	rows := make([][]int, len(keys)*n)
	backing := make([]int, total)
	for j, size := range sizes {
		rows[j], backing = backing[:0:size], backing[size:]
	}
	for i, ps := range postings {
		for _, p := range ps {
			if k, ok := visible(p); ok {
				rows[k*n+i] = append(rows[k*n+i], p.Row)
			}
		}
	}
	var out []ColumnMatch
	for k, key := range keys {
		if !slices.Contains(sizes[k*n:(k+1)*n], 0) {
			out = append(out, ColumnMatch{Key: key.ColumnKey, Rows: rows[k*n : (k+1)*n : (k+1)*n]})
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
