package relation

import (
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Dict is a per-column string dictionary: every distinct value of a TEXT
// column is interned once and referenced by a dense int32 code. Columns
// store codes instead of Go strings, which cuts the per-row footprint to
// four bytes, makes equality comparisons integer compares, and lets index
// builders normalize each distinct value exactly once instead of once per
// row.
//
// Codes are assigned in first-appearance order and are never reused, so a
// snapshot that serializes the dictionary in code order restores the exact
// same encoding.
//
// Concurrency: a Dict is append-only and deliberately shared across
// copy-on-write epochs instead of cloned. Decoding takes no lock: the
// values are published as an immutable prefix behind one atomic pointer
// (Value, Values and Len are one load and an index), and Intern — which
// the owning relation's writer lock serializes — appends past every
// published prefix and republishes. Codes are stable forever — an epoch
// that was published when the dictionary held n values only ever stores
// codes < n in its columns and statistics, so readers of a retired epoch
// decode exactly the values they saw at publish time even while a writer
// interns new ones. Only the reverse map (Lookup, Intern) is behind the
// internal lock.
//
// Order: the dictionary is order-preserving on demand. SortCodes orders
// codes by the string order of their values through a rank table
// (rank[code] and its inverse) that is built on first use, never stored —
// it is an inverse of the values — and covers the codes [0, n) it was
// built over. Interning a value never changes the relative order of the
// existing ones, so a reader sorts by the one table pointer it loaded,
// whatever is interned or rebuilt meanwhile; codes ≥ n (interned since)
// are placed by string comparison, and the table is rebuilt by a merge
// once they pass 1/rankFoldDiv of the dictionary — the fold rule of the
// index tails. A reader of a retired epoch holds codes below its epoch's
// n only, and any table, older or newer, orders them the same way.
type Dict struct {
	mu sync.RWMutex
	// vals is the writer's slice (under mu); view is its published
	// prefix, len == cap, so no reader can append into the writer's
	// spare capacity.
	vals []string
	view atomic.Pointer[[]string]
	ids  map[string]int32

	// ranks is the current rank table (nil until the first SortCodes of
	// two codes or more); buildMu makes its rebuild single-flight
	// without ever blocking a reader (TryLock).
	ranks   atomic.Pointer[rankTable]
	buildMu sync.Mutex
}

// rankTable orders the codes [0, len(rank)): rank[code] is the position
// of the code's value among them in string order, order[rank] the code
// at that position. Immutable once published.
type rankTable struct {
	rank  []int32
	order []int32
}

// rankFoldDiv is the rank table's fold rule: it is rebuilt once the
// codes interned since it was built are more than 1/rankFoldDiv of the
// dictionary, so a rebuild's O(n) merge is amortized O(rankFoldDiv) per
// interned value.
const rankFoldDiv = 32

var noRanks = &rankTable{}

// NoCode is the sentinel code stored for NULL cells; it never names a
// dictionary entry.
const NoCode int32 = -1

// newDict creates an empty dictionary.
func newDict() *Dict {
	return &Dict{ids: make(map[string]int32)}
}

// Intern returns the code of v, assigning the next dense code on first
// appearance. Callers must serialize Intern with other Interns of the
// same dictionary (the αDB's per-relation writer locks do).
func (d *Dict) Intern(v string) int32 {
	d.mu.RLock()
	id, ok := d.ids[v]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.ids[v]; ok {
		return id
	}
	id = int32(len(d.vals))
	d.vals = append(d.vals, v)
	d.ids[v] = id
	d.publish()
	return id
}

// publish makes the writer's values visible to the lock-free readers.
func (d *Dict) publish() {
	view := d.vals[:len(d.vals):len(d.vals)]
	d.view.Store(&view)
}

// Lookup returns the code of v without interning, and whether v is known.
func (d *Dict) Lookup(v string) (int32, bool) {
	d.mu.RLock()
	id, ok := d.ids[v]
	d.mu.RUnlock()
	return id, ok
}

// Value decodes a code back to its string.
func (d *Dict) Value(code int32) string { return d.Values()[code] }

// Len returns the number of distinct interned values.
func (d *Dict) Len() int { return len(d.Values()) }

// Values returns the interned values in code order as a point-in-time
// view: entries [0, len) are immutable, so the returned slice stays
// valid while writers keep interning. Do not mutate.
func (d *Dict) Values() []string {
	if v := d.view.Load(); v != nil {
		return *v
	}
	return nil
}

// SortCodes reorders codes in place by the string order of their values
// — what sort.Strings would make of the decoded values — keeping
// duplicates. The work is integer work: codes the rank table covers are
// replaced by their ranks and sorted as int32 (through a bitmap over the
// ranks when the codes are a large share of the dictionary); codes
// interned since the table was built find their place among the ranked
// ones by binary search and are merged in.
func (d *Dict) SortCodes(codes []int32) {
	if len(codes) < 2 {
		return
	}
	t, vals := d.rankTable()
	t.sortCodes(vals, codes)
}

// sortCodes is SortCodes by this table; vals covers the codes it ranks
// and the ones to sort.
func (t *rankTable) sortCodes(vals []string, codes []int32) {
	tn := int32(len(t.rank))
	// Ranked codes become their ranks at the front of the slice; the
	// rest wait in tail with the rank they sort in front of.
	var tail []tailCode
	m := 0
	for _, c := range codes {
		if c < tn {
			codes[m] = t.rank[c]
			m++
			continue
		}
		v := vals[c]
		before := sort.Search(len(t.order), func(r int) bool { return vals[t.order[r]] > v })
		tail = append(tail, tailCode{before: int32(before), code: c})
	}
	sortRanks(codes[:m], len(t.rank))
	slices.SortFunc(tail, func(a, b tailCode) int {
		if a.before != b.before {
			return int(a.before - b.before)
		}
		return strings.Compare(vals[a.code], vals[b.code])
	})
	// Merge from the back, where the write position never passes the
	// unread ranks: a tail code sorts after every rank below its before.
	i, j := m-1, len(tail)-1
	for o := len(codes) - 1; o >= 0; o-- {
		if j >= 0 && (i < 0 || tail[j].before > codes[i]) {
			codes[o] = tail[j].code
			j--
		} else {
			codes[o] = t.order[codes[i]]
			i--
		}
	}
}

// tailCode is a code the rank table does not cover, with the rank its
// value sorts directly in front of.
type tailCode struct {
	before, code int32
}

// sortRanks sorts ranks drawn from [0, n) ascending, duplicates kept.
// When there is at least one rank per 64-rank word of the range, a bitmap
// over the range orders them in one scan — the bitmap is then no larger
// than the ranks themselves; repeats of a rank, which a bit cannot
// count, are sorted on the side and rejoin their rank on the way out.
func sortRanks(ranks []int32, n int) {
	if len(ranks)*64 < n {
		slices.Sort(ranks)
		return
	}
	words := make([]uint64, (n+63)/64)
	var repeats []int32
	for _, r := range ranks {
		if bit := uint64(1) << (r & 63); words[r>>6]&bit == 0 {
			words[r>>6] |= bit
		} else {
			repeats = append(repeats, r)
		}
	}
	slices.Sort(repeats)
	i := 0
	for w, word := range words {
		for ; word != 0; word &= word - 1 {
			r := int32(w<<6 + bits.TrailingZeros64(word))
			ranks[i] = r
			i++
			for len(repeats) > 0 && repeats[0] == r {
				ranks[i] = r
				i++
				repeats = repeats[1:]
			}
		}
	}
}

// rankTable returns the rank table to sort by and a view of the values
// that covers at least the codes it ranks. When the table trails the
// dictionary by more than the fold rule allows, the caller rebuilds it —
// unless another reader already is: then it sorts by the table there is
// (possibly none, which is every code placed by string comparison), so
// no reader ever waits for one.
func (d *Dict) rankTable() (*rankTable, []string) {
	// The values are loaded after the table, so they cover what it ranks.
	t, vals := d.loadRanks(), d.Values()
	if t.trails(vals) && d.buildMu.TryLock() {
		if t, vals = d.loadRanks(), d.Values(); t.trails(vals) {
			t = buildRanks(t, vals)
			d.ranks.Store(t)
		}
		d.buildMu.Unlock()
	}
	return t, vals
}

func (d *Dict) loadRanks() *rankTable {
	if t := d.ranks.Load(); t != nil {
		return t
	}
	return noRanks
}

// trails reports whether the fold rule wants the table rebuilt over vals.
func (t *rankTable) trails(vals []string) bool {
	return (len(vals)-len(t.rank))*rankFoldDiv > len(vals)
}

// buildRanks extends old to cover vals: the codes old does not rank are
// sorted by value and merged into its order, O(len(vals)) comparisons
// past the sort of the new ones.
func buildRanks(old *rankTable, vals []string) *rankTable {
	fresh := make([]int32, len(vals)-len(old.order))
	for i := range fresh {
		fresh[i] = int32(len(old.order) + i)
	}
	slices.SortFunc(fresh, func(a, b int32) int { return strings.Compare(vals[a], vals[b]) })
	t := &rankTable{rank: make([]int32, len(vals)), order: make([]int32, 0, len(vals))}
	i, j := 0, 0
	for i < len(old.order) || j < len(fresh) {
		if j == len(fresh) || (i < len(old.order) && vals[old.order[i]] < vals[fresh[j]]) {
			t.order = append(t.order, old.order[i])
			i++
		} else {
			t.order = append(t.order, fresh[j])
			j++
		}
	}
	for r, c := range t.order {
		t.rank[c] = int32(r)
	}
	return t
}

// ByteSize estimates the dictionary's in-memory footprint, the rank
// table included once it exists.
func (d *Dict) ByteSize() int64 {
	vals := d.Values()
	// 16 bytes of string header per entry, roughly doubled for the
	// reverse map entry, plus the payload bytes stored once.
	n := int64(len(vals)) * 40
	for _, v := range vals {
		n += int64(len(v))
	}
	if t := d.ranks.Load(); t != nil {
		n += int64(len(t.rank)+len(t.order)) * 4
	}
	return n
}

// RestoreDict rebuilds a dictionary from values in code order (snapshot
// load).
func RestoreDict(vals []string) *Dict {
	d := &Dict{vals: vals, ids: make(map[string]int32, len(vals))}
	for i, v := range vals {
		d.ids[v] = int32(i)
	}
	d.publish()
	return d
}
