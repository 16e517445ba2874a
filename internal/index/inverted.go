// Package index provides the indexing substrate SQuID relies on: a global
// inverted column index over all text attributes (used for entity lookup,
// §5 of the paper), hash indexes for key/foreign-key point lookups during
// abduction, and sorted column indexes used for numeric selectivity
// computation in the abduction-ready database.
package index

import (
	"sort"
	"strings"
	"sync"

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
// parallel inverted-index build and the αDB's parallel offline phase.
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
// inner whitespace collapsed.
func normalize(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}

// Lookup returns all postings of the (normalized) value, with no epoch
// filtering; single-writer offline consumers (tests, the αDB build) use
// it. Online readers go through LookupBelow.
func (inv *Inverted) Lookup(value string) []Posting {
	inv.mu.RLock()
	ps := inv.postings[normalize(value)]
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
// Concurrent writers of disjoint relations serialize here briefly; the
// posting becomes visible to epoch-pinned readers only once an epoch
// whose row count covers it is published.
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
func (inv *Inverted) CommonColumns(values []string, limit RowLimit) []ColumnMatch {
	if len(values) == 0 {
		return nil
	}
	// For each value, the set of columns it appears in, plus its rows there.
	type colRows map[ColumnKey][]int
	perValue := make([]colRows, len(values))
	for i, v := range values {
		m := make(colRows)
		for _, p := range inv.LookupBelow(v, limit) {
			k := ColumnKey{p.Relation, p.Column}
			m[k] = append(m[k], p.Row)
		}
		perValue[i] = m
	}
	// Intersect column sets across values.
	var out []ColumnMatch
	for k, rows0 := range perValue[0] {
		match := ColumnMatch{Key: k, Rows: make([][]int, len(values))}
		match.Rows[0] = rows0
		ok := true
		for i := 1; i < len(values); i++ {
			rows, has := perValue[i][k]
			if !has {
				ok = false
				break
			}
			match.Rows[i] = rows
		}
		if ok {
			out = append(out, match)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Relation != out[j].Key.Relation {
			return out[i].Key.Relation < out[j].Key.Relation
		}
		return out[i].Key.Column < out[j].Key.Column
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
