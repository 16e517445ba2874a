package relation

import (
	"hash/maphash"
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
// The dictionary keeps its values once, in code order, and two tables
// over their codes. The normal index (normalIndex) finds values: an
// open-addressing hash table of every code keyed by the hash of its
// value's normal form, which Lookup and Intern probe for a value's own
// form and AppendNormalCodes for a form any spelling can share. The
// rank table (rank[code] and its inverse, order: the codes in string
// order), built on first use over the codes [0, n) there were, only
// orders: SortCodes replaces codes by their ranks and sorts integers.
// Interning a value never changes the relative order of the existing
// ones, so a reader sorts by the one table pointer it loaded, whatever
// is interned or rebuilt meanwhile, and the table is rebuilt once the
// codes past it are more than 1/rankFoldDiv of the dictionary — the
// fold rule of the index tails.
//
// Concurrency: a Dict is append-only and deliberately shared across
// copy-on-write epochs instead of cloned: the values are published as
// an immutable prefix behind one atomic pointer (Value, Values and Len
// are one load and an index), each table behind another, and Intern —
// which the αDB's one write lock serializes — adds the value's code to
// the normal index, appends past every published prefix and
// republishes. A lookup takes no lock; a sort takes none while the
// rank table keeps up, and one that finds it trailing rebuilds it, or
// waits for the reader already rebuilding it.
// Codes are stable forever — an epoch that was published when the
// dictionary held n values only ever stores codes < n in its columns
// and statistics, so readers of a retired epoch decode exactly the
// values they saw at publish time even while a writer interns new
// ones.
type Dict struct {
	// vals is the writer's slice; view publishes its prefix, len == cap,
	// so no reader can append into the writer's spare capacity.
	vals []string
	view atomic.Pointer[dictView]
	// restored marks a dictionary RestoreDict adopted at its exact
	// size: its values grow by bounded steps (valsGrowDiv).
	restored bool

	// ranks is the current rank table (nil until the first SortCodes of
	// two codes or more), and normals the normal index (nil until it is
	// first used). buildMu makes a rank table's rebuild single-flight;
	// normalMu orders a normal index's build with the writer's
	// additions to it.
	ranks    atomic.Pointer[rankTable]
	normals  atomic.Pointer[normalIndex]
	buildMu  sync.Mutex
	normalMu sync.Mutex
}

// dictView is a published prefix of the values and the spare capacity
// of the writer's slice behind it (what ByteSize counts as the tail).
type dictView struct {
	vals  []string
	spare int
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
// dictionary. A rebuild places the new codes by binary search and
// copies the n old ones, so it costs O(rankFoldDiv) copies per
// interned value.
const rankFoldDiv = 32

var noRanks = &rankTable{}

// valsGrowDiv and valsGrowMin are the step a restored dictionary's
// values grow by when full: 1/valsGrowDiv of them, at least valsGrowMin.
// Its spare room is at most that share of the values, and an intern
// copies O(valsGrowDiv) value headers, amortized.
const (
	valsGrowDiv = 32
	valsGrowMin = 64
)

// NoCode is the sentinel code stored for NULL cells; it never names a
// dictionary entry.
const NoCode int32 = -1

// newDict creates an empty dictionary.
func newDict() *Dict { return &Dict{} }

// Intern returns the code of v, assigning the next dense code on first
// appearance: a lookup, then add on a miss with the hash the lookup
// computed. Callers must serialize Intern with other Interns of the
// same dictionary (the αDB's write lock does).
func (d *Dict) Intern(v string) int32 {
	id, h, ok := d.lookup(v)
	if ok {
		return id
	}
	return d.add(v, h)
}

// add appends v, which the dictionary lacks and whose normal form
// hashes to h, and publishes it. v's code is in the normal index before
// v is published, so a reader that sees the value finds its code. The
// code is placed by h; only a relayout of the index normalizes the codes
// again.
func (d *Dict) add(v string, h uint64) int32 {
	d.normalMu.Lock()
	defer d.normalMu.Unlock()
	id := int32(len(d.vals))
	if n := len(d.vals); n == cap(d.vals) && d.restored {
		// A bounded step, not append's rule: a loaded dictionary is held
		// at its exact size, and append would grow it by a quarter or
		// more on its first intern. One filled by interning takes
		// append's rule, so a bulk load copies each value header a few
		// times, not valsGrowDiv times.
		grown := make([]string, n, n+max(n/valsGrowDiv, valsGrowMin))
		copy(grown, d.vals)
		d.vals = grown
	}
	d.vals = append(d.vals, v)
	ix := d.normals.Load()
	if ix == nil || ix.codes != int(id) || len(d.vals)*5 > len(ix.slots)*4 {
		ix = ix.covering(d.vals)
	} else {
		ix.place(h, ix.codes)
		ix.codes++
	}
	d.normals.Store(ix)
	d.publish()
	return id
}

// publish makes the writer's values visible to the lock-free readers.
func (d *Dict) publish() {
	n := len(d.vals)
	d.view.Store(&dictView{vals: d.vals[:n:n], spare: cap(d.vals) - n})
}

// Lookup returns the code of v without interning, and whether v is
// known: v is normalized once, on the stack (on the heap only past 64
// bytes), and the one value among its normal form's candidates in the
// normal index that equals v byte for byte is the answer.
func (d *Dict) Lookup(v string) (int32, bool) {
	id, _, ok := d.lookup(v)
	return id, ok
}

// lookup is Lookup that also returns the hash of v's normal form.
func (d *Dict) lookup(v string) (int32, uint64, bool) {
	vals := d.Values()
	ix := d.normalIndex() // after the values: it holds all their codes
	var buf [64]byte
	h := maphash.Bytes(normalSeed, AppendNormal(buf[:0], v))
	for p := ix.candidates(h, len(vals)); ; {
		c, ok := p.next()
		if !ok || vals[c] == v {
			return c, h, ok
		}
	}
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
		return v.vals
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
		tail = append(tail, tailCode{before: int32(t.before(vals, 0, vals[c])), code: c})
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

// before returns the first rank at or past from whose value sorts after
// v.
func (t *rankTable) before(vals []string, from int, v string) int {
	return from + sort.Search(len(t.order)-from, func(r int) bool { return vals[t.order[from+r]] > v })
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
// dictionary by more than the fold rule allows, the caller rebuilds it,
// or waits for the caller already rebuilding it.
func (d *Dict) rankTable() (*rankTable, []string) {
	// The values are loaded after the table, so they cover what it ranks.
	t, vals := d.loadRanks(), d.Values()
	if t.trails(vals) {
		d.buildMu.Lock()
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
// sorted by value, and each is placed in old's order by binary search,
// the runs of old codes between them copied.
func buildRanks(old *rankTable, vals []string) *rankTable {
	fresh := make([]int32, len(vals)-len(old.order))
	for i := range fresh {
		fresh[i] = int32(len(old.order) + i)
	}
	slices.SortFunc(fresh, func(a, b int32) int { return strings.Compare(vals[a], vals[b]) })
	t := &rankTable{rank: make([]int32, len(vals)), order: make([]int32, 0, len(vals))}
	i := 0
	for _, c := range fresh {
		at := old.before(vals, i, vals[c])
		t.order = append(append(t.order, old.order[i:at]...), c)
		i = at
	}
	t.order = append(t.order, old.order[i:]...)
	for r, c := range t.order {
		t.rank[c] = int32(r)
	}
	return t
}

// normalIndex is an open-addressing hash table of a dictionary's
// codes keyed by their values' normal forms. A code sits in the first
// empty slot at or after the one its hash picks (linear probing), so
// the codes of one normal form share a probe sequence. A slot holds
// code+1 in its low shift bits — 0 when empty, and every code+1 is
// below the slot count — and the hash's tag above them, so a probe
// reads a value only when the tags agree. It holds every code: the
// writer stores each code it adds atomically, before it publishes the
// value, so a reader probes without a lock, and once the codes would
// pass 4/5 of the slots the writer lays out a table of twice the slots
// and publishes that instead.
type normalIndex struct {
	slots []atomic.Int32
	shift uint
	codes int // it holds the codes [0, codes); written under normalMu
}

// normalSeed seeds the hash of every normal form in the process.
var normalSeed = maphash.MakeSeed()

// probe returns the slot a normal form's hash h starts probing at and
// the tag its codes' slots carry: the hash's high half picks the slot,
// its low half fills the bits above shift.
func (ix *normalIndex) probe(h uint64) (int, int32) {
	return int(h >> 32 * uint64(len(ix.slots)) >> 32), int32(uint32(h) >> (ix.shift + 1) << ix.shift)
}

// candidates walks the probe sequence of a normal form's hash: the
// codes below n whose slots carry its tag, every code of that form
// among them.
type candidates struct {
	ix          *normalIndex
	i           int
	tag, low, n int32
}

func (ix *normalIndex) candidates(h uint64, n int) candidates {
	i, tag := ix.probe(h)
	return candidates{ix: ix, i: i, tag: tag, low: int32(1)<<ix.shift - 1, n: int32(n)}
}

// next returns the next candidate, or false at the empty slot that ends
// the probe sequence.
func (p *candidates) next() (int32, bool) {
	for {
		s := p.ix.slots[p.i].Load()
		if s == 0 {
			return 0, false
		}
		if p.i++; p.i == len(p.ix.slots) {
			p.i = 0
		}
		// A code past n was added since the caller loaded its values.
		if c := s&p.low - 1; s&^p.low == p.tag && c < p.n {
			return c, true
		}
	}
}

// covering returns an index of every code of vals: ix with the codes it
// lacks added, or, once they would fill more than 4/5 of its slots, a
// table of twice the slots laid out afresh, so the layouts the writer
// makes while the dictionary grows to N values normalize fewer than 2N
// values in all. A table laid out from nothing (ix nil, as Build and
// Load lay it out) is a third larger than the codes need. Each value
// is normalized once, into one buffer on the stack (on the heap only
// past 64 bytes) that every value reuses, to key its hash.
func (ix *normalIndex) covering(vals []string) *normalIndex {
	if ix == nil {
		ix = newNormalIndex(tightSlots(len(vals)))
	} else if len(vals)*5 > len(ix.slots)*4 {
		ix = newNormalIndex(2 * len(ix.slots))
	}
	var stack [64]byte
	buf := stack[:0]
	for ; ix.codes < len(vals); ix.codes++ {
		buf = AppendNormal(buf[:0], vals[ix.codes])
		ix.place(maphash.Bytes(normalSeed, buf), ix.codes)
	}
	return ix
}

// place stores code, whose normal form hashes to h, in the first empty
// slot of its probe sequence.
func (ix *normalIndex) place(h uint64, code int) {
	i, tag := ix.probe(h)
	for ix.slots[i].Load() != 0 {
		if i++; i == len(ix.slots) {
			i = 0
		}
	}
	ix.slots[i].Store(tag | int32(code+1))
}

// tightSlots is the slot count of a table laid out from nothing over n
// codes: a third more than the codes need.
func tightSlots(n int) int { return n*4/3 + 8 }

func newNormalIndex(size int) *normalIndex {
	return &normalIndex{slots: make([]atomic.Int32, size), shift: uint(bits.Len(uint(size)))}
}

// normalIndex returns the normal index, laying it out on first use. It
// holds every code of the values published before it was loaded (add
// stores a code before it publishes the value).
func (d *Dict) normalIndex() *normalIndex {
	if ix := d.normals.Load(); ix != nil {
		return ix
	}
	d.BuildNormalIndex()
	return d.normals.Load()
}

// BuildNormalIndex lays the normal index out afresh, a third larger
// than the codes need, in place of one the interns of a load grew by
// doubling: Build and Load lay out every TEXT column's before the
// system serves, so a built and a loaded system hold one layout. A
// table of that size is that layout already (every layout places the
// codes in code order), so it is kept: building a database again
// normalizes nothing.
func (d *Dict) BuildNormalIndex() {
	d.normalMu.Lock()
	defer d.normalMu.Unlock()
	if ix := d.normals.Load(); ix == nil || len(ix.slots) != tightSlots(len(d.vals)) {
		d.normals.Store((*normalIndex)(nil).covering(d.vals))
	}
}

// AppendNormalCodes appends to dst, ascending, the code of every value
// whose normal form (lower case, spaces collapsed) is form, as
// AppendNormal writes it: several values can share one. A probed
// value is normalized on the stack (on the heap only past 64 bytes),
// so a lookup allocates nothing past what dst needs.
func (d *Dict) AppendNormalCodes(dst []int32, form []byte) []int32 {
	vals := d.Values()
	ix := d.normalIndex() // after the values: it holds all their codes
	start := len(dst)
	var buf [64]byte
	for p := ix.candidates(maphash.Bytes(normalSeed, form), len(vals)); ; {
		c, ok := p.next()
		if !ok {
			break
		}
		if string(AppendNormal(buf[:0], vals[c])) == string(form) {
			dst = append(dst, c)
		}
	}
	if len(dst)-start > 1 {
		slices.Sort(dst[start:])
	}
	return dst
}

// ByteSize returns the bytes the dictionary holds, counted from
// lengths: a string header a value and a header a slot of the writer's
// spare capacity (the tail the next values land in), each value's
// bytes, and the rank table and the normal index once built.
func (d *Dict) ByteSize() int64 {
	v := d.view.Load()
	if v == nil {
		return 0
	}
	n := int64(len(v.vals)+v.spare) * 16
	for _, s := range v.vals {
		n += int64(len(s))
	}
	if t := d.ranks.Load(); t != nil {
		n += int64(len(t.rank)+len(t.order)) * 4
	}
	if ix := d.normals.Load(); ix != nil {
		n += int64(len(ix.slots)) * 4
	}
	return n
}

// RestoreDict adopts values in code order as a dictionary (snapshot
// load), which the snapshot reader hands over at their exact size: the
// values past them grow by bounded steps (valsGrowDiv).
func RestoreDict(vals []string) *Dict {
	d := &Dict{vals: vals, restored: true}
	d.publish()
	return d
}
