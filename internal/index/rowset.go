package index

import (
	"math/bits"
	"slices"
	"sort"
)

// RowSet is an adaptive set over entity rows with two physical forms,
// chosen per set by cardinality (the hybrid used by Roaring-style
// engines):
//
//   - sparse: a sorted, duplicate-free []uint32 of member rows, used
//     while the cardinality stays at or below roughly two members per
//     64-row word of the set's span — the byte break-even, where the
//     4-byte-per-member array matches the 8-byte words it replaces;
//   - dense: a []uint64 bitset (bit r set means row r is in the set),
//     used above that threshold, where word-parallel algebra wins.
//
// The algebra is form-aware: sparse×sparse intersects by galloping
// (exponential-search) merge, sparse×dense probes the bitmap per member,
// dense×dense runs the word-wise loop. A set is built in the form its
// expected cardinality picks (NewRowSet: every builder knows the count
// from a statistic before it reads a row), so a fill neither grows nor
// migrates; Compact re-picks the form from the actual contents when the
// set is frozen; and an intersection that empties a dense set out
// sparsifies it (releasing the large bitset), so a once-large set does
// not stay large forever. At million-row universes this is the
// difference between every cached highly-selective filter costing ~125
// KB and it costing a few dozen bytes, and between AndWith scanning
// ~15.6k words and it galloping through a handful of members.
//
// The zero value is an empty set. A RowSet is NOT safe for concurrent
// mutation; the αDB selectivity cache hands out sets that are immutable
// once stored (exactly like the posting lists they memoize), so readers
// must treat cached sets as frozen and Clone before mutating. To keep
// frozen sets safe for concurrent readers, the read-only methods
// (Contains/Count/Iterate/ToSorted/ResidentBytes/...) never touch the
// representation: every mutating method restores the sparse
// sorted-unique invariant before it returns.
type RowSet struct {
	// Exactly one form is live: words non-nil means dense; otherwise
	// the set is sparse (possibly empty).
	words  []uint64
	sparse []uint32
	// universeWords is the word span of the universe the set was created
	// for. A sparse set that outgrows the sparse limit of that span
	// (not of the rows it happens to hold so far) densifies to it, and
	// DenseEquivalentBytes reports it as what a dense-only
	// representation would have allocated.
	universeWords int
}

// sparseLimit returns the largest sparse cardinality for a set spanning
// the given number of 64-row words: two members per word — the byte
// break-even where the 4-byte-per-member array matches the bitset it
// replaces (and galloping still beats the word loop comfortably). The
// floor keeps small sets from flip-flopping between forms on every
// mutation.
func sparseLimit(words int) int {
	const floor = 16
	if 2*words < floor {
		return floor
	}
	return 2 * words
}

// spanWords returns the number of words needed to cover the set's
// current span (0 for an empty set).
func (s *RowSet) spanWords() int {
	if s.words != nil {
		return len(s.words)
	}
	if n := len(s.sparse); n > 0 {
		return int(s.sparse[n-1])>>6 + 1
	}
	return 0
}

// NewRowSet returns an empty set for rows in [0, universe) that is about
// to receive at most count members, in the form that cardinality picks:
// the dense words allocated once at the universe's span when count is
// past the sparse limit, a sparse array of exactly that capacity
// otherwise. A fill that keeps its promise therefore never grows,
// migrates or re-sizes the set. Both numbers only bound expectations —
// rows past the universe grow the set, members past count grow or
// densify it — and Compact re-picks the form from what the set ended up
// holding.
func NewRowSet(universe, count int) *RowSet {
	s := &RowSet{universeWords: (universe + 63) >> 6}
	switch {
	case count > sparseLimit(s.universeWords):
		s.words = make([]uint64, s.universeWords)
	case count > 0:
		s.sparse = make([]uint32, 0, count)
	}
	return s
}

// RowSetFromSorted builds a set from an ascending row list (the αDB
// posting-list format). Unsorted or duplicate input still produces the
// correct set, sized off the true maximum, not the last element.
func RowSetFromSorted(rows []int) *RowSet {
	maxRow := -1
	for _, r := range rows {
		maxRow = max(maxRow, r)
	}
	s := NewRowSet(maxRow+1, len(rows))
	s.AddInts(rows)
	s.Compact() // duplicates overstate the count
	return s
}

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(sp []uint32) []uint32 {
	out := sp[:0]
	for i, v := range sp {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// maybeDensify flips a sparse set that outgrew the sparse limit of its
// universe (or of its span, once rows lie past the universe) to the
// dense form.
func (s *RowSet) maybeDensify() {
	if s.words != nil {
		return
	}
	if w := max(s.universeWords, s.spanWords()); len(s.sparse) > sparseLimit(w) {
		s.densify(w)
	}
}

// densify unconditionally converts a sparse set to w dense words, which
// must cover its span.
func (s *RowSet) densify(w int) {
	s.words = make([]uint64, w)
	for _, r := range s.sparse {
		s.words[r>>6] |= 1 << (r & 63)
	}
	s.sparse = nil
}

// maybeSparsify flips a dense set whose cardinality dropped to half the
// sparse threshold back to the sparse form, releasing the bitset — the
// storage-shrink half of the adaptive contract. count must be the set's
// exact cardinality. Hysteresis (limit/2, not limit) keeps a set sitting
// at the boundary from thrashing between forms.
func (s *RowSet) maybeSparsify(count int) {
	if s.words == nil {
		return
	}
	if count > sparseLimit(len(s.words))/2 {
		return
	}
	s.sparsify(count)
}

// sparsify unconditionally converts a dense set of the given exact
// cardinality to the sparse form, releasing the bitset.
func (s *RowSet) sparsify(count int) {
	if count == 0 {
		s.words, s.sparse = nil, nil
		return
	}
	sp := make([]uint32, 0, count)
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			sp = append(sp, uint32(wi<<6|b))
			w &= w - 1
		}
	}
	s.words, s.sparse = nil, sp
}

// trimWords drops trailing all-zero words so a shrunken dense set's span
// reflects what it still holds, and reallocates when less than half the
// capacity remains live — a once-large set must not stay large forever.
func (s *RowSet) trimWords() {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	if n*2 < cap(s.words) {
		s.words = append(make([]uint64, 0, n), s.words[:n]...)
		return
	}
	s.words = s.words[:n]
}

// grow extends the dense word storage to cover word index w.
func (s *RowSet) grow(w int) {
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
}

// Add inserts one row. The dense in-span case, what a builder filling a
// pre-sized set hits on every row, is one unsigned compare (which a
// negative row fails) and one OR.
func (s *RowSet) Add(row int) {
	if w := uint(row) >> 6; w < uint(len(s.words)) {
		s.words[w] |= 1 << (uint(row) & 63)
		return
	}
	if row < 0 {
		return
	}
	if s.words != nil {
		s.grow(row >> 6)
		s.words[row>>6] |= 1 << uint(row&63)
		return
	}
	r := uint32(row)
	n := len(s.sparse)
	if n == 0 || r > s.sparse[n-1] {
		// Ascending append: the posting-list fast path.
		s.sparse = append(s.sparse, r)
	} else {
		i := sort.Search(n, func(i int) bool { return s.sparse[i] >= r })
		if s.sparse[i] == r {
			return
		}
		s.sparse = append(s.sparse, 0)
		copy(s.sparse[i+1:], s.sparse[i:])
		s.sparse[i] = r
	}
	s.maybeDensify()
}

// AddAll inserts every row of a 4-byte posting list (the αDB's and the
// hash indexes' row width). Into the dense form it is one pass of bit
// sets, and only a row past the span grows the set. Into the sparse form
// it appends, and pays one sort and dedup over the combined array only
// when the rows did not arrive strictly ascending (a second posting list
// of a union, the rows a list gained since its last fold, an index range
// in value order) — never a per-row insertion shuffle.
func (s *RowSet) AddAll(rows []uint32) { addAll(s, rows) }

// AddInts is AddAll over int rows; a negative row is skipped.
func (s *RowSet) AddInts(rows []int) { addAll(s, rows) }

// addAll is AddAll and AddInts: the unsigned compare that bounds the
// word index also rejects a negative int row.
func addAll[T int | uint32](s *RowSet, rows []T) {
	if s.words != nil {
		words := s.words
		for _, r := range rows {
			w := uint(r) >> 6
			if w >= uint(len(words)) {
				if r < 0 {
					continue
				}
				s.grow(int(w))
				words = s.words
			}
			words[w] |= 1 << (uint(r) & 63)
		}
		return
	}
	sp := s.sparse
	ascending := true
	for _, r := range rows {
		if r < 0 {
			continue
		}
		if n := len(sp); n > 0 && uint32(r) <= sp[n-1] {
			ascending = false
		}
		sp = append(sp, uint32(r))
	}
	if !ascending {
		slices.Sort(sp)
		sp = dedupSorted(sp)
	}
	s.sparse = sp
	s.maybeDensify()
}

// AddWord inserts row 64·wi+b for every set bit b of w: one 64-row word
// of a scan that gathers its matches a word at a time. Into the dense
// form within its span it is one OR; otherwise the rows go in one by
// one, ascending.
func (s *RowSet) AddWord(wi int, w uint64) {
	if uint(wi) < uint(len(s.words)) {
		s.words[wi] |= w
		return
	}
	for ; w != 0; w &= w - 1 {
		s.Add(wi<<6 | bits.TrailingZeros64(w))
	}
}

// Contains reports membership.
func (s *RowSet) Contains(row int) bool {
	if s == nil || row < 0 {
		return false
	}
	if s.words != nil {
		w := row >> 6
		return w < len(s.words) && s.words[w]&(1<<uint(row&63)) != 0
	}
	r := uint32(row)
	i := sort.Search(len(s.sparse), func(i int) bool { return s.sparse[i] >= r })
	return i < len(s.sparse) && s.sparse[i] == r
}

// Count returns the cardinality (sparse length or population count).
func (s *RowSet) Count() int {
	if s == nil {
		return 0
	}
	if s.words == nil {
		return len(s.sparse)
	}
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy in the same form; mutating the clone
// never touches the original (the detach step before intersecting cached
// sets). Cloning a sparse set stays sparse — the intersection cascade's
// accumulator never pays for a bitset it does not need.
func (s *RowSet) Clone() *RowSet {
	if s == nil {
		return &RowSet{}
	}
	c := &RowSet{universeWords: s.universeWords}
	if s.words != nil {
		c.words = append([]uint64{}, s.words...)
	} else if len(s.sparse) > 0 {
		c.sparse = append([]uint32(nil), s.sparse...)
	}
	return c
}

// AndWith intersects in place (s ∩= t) and reports whether any rows
// remain — the early-exit signal of the intersection cascade. A nil t is
// the empty set. The result adapts: a dense set that intersects down to
// a handful of rows sparsifies and releases its bitset, and the dense
// loop stops at the shorter operand (everything past it is provably
// zero) instead of scanning and zeroing the tail.
func (s *RowSet) AndWith(t *RowSet) bool {
	tEmpty := t == nil || (t.words == nil && len(t.sparse) == 0) || (t.words != nil && len(t.words) == 0)
	if tEmpty {
		s.words, s.sparse = nil, nil
		return false
	}
	switch {
	case s.words == nil && t.words == nil:
		s.sparse = intersectGallop(s.sparse, t.sparse)
	case s.words == nil:
		// sparse×dense: probe the bitmap per member.
		out := s.sparse[:0]
		for _, r := range s.sparse {
			if w := int(r >> 6); w < len(t.words) && t.words[w]&(1<<(r&63)) != 0 {
				out = append(out, r)
			}
		}
		s.sparse = out
	case t.words == nil:
		// dense×sparse: the result has at most len(t.sparse) members —
		// probe s per member and come out sparse, dropping the bitset.
		out := make([]uint32, 0, len(t.sparse))
		for _, r := range t.sparse {
			if w := int(r >> 6); w < len(s.words) && s.words[w]&(1<<(r&63)) != 0 {
				out = append(out, r)
			}
		}
		s.words, s.sparse = nil, out
		s.maybeDensify() // re-densify if the result still exceeds its span's limit
	default:
		// dense×dense: word loop to the shorter operand; the tail is
		// zero by construction, so truncate instead of scanning it.
		n := min(len(s.words), len(t.words))
		s.words = s.words[:n]
		count := 0
		for i := 0; i < n; i++ {
			s.words[i] &= t.words[i]
			count += bits.OnesCount64(s.words[i])
		}
		s.trimWords()
		s.maybeSparsify(count)
	}
	if s.words != nil {
		return len(s.words) > 0 // trimmed: any remaining word is non-zero
	}
	return len(s.sparse) > 0
}

// intersectGallop intersects two sorted sets in place into a's storage
// using exponential search on the longer side — O(min·log(max/min)),
// the sparse×sparse fast path.
func intersectGallop(a, b []uint32) []uint32 {
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i += gallop(a[i:], b[j])
		default:
			j += gallop(b[j:], a[i])
		}
	}
	return out
}

// gallop returns the offset of the first element of xs that is >= v,
// found by doubling probes then binary search within the last bracket.
func gallop(xs []uint32, v uint32) int {
	bound := 1
	for bound < len(xs) && xs[bound] < v {
		bound <<= 1
	}
	lo := bound >> 1
	hi := min(bound+1, len(xs))
	return lo + sort.Search(hi-lo, func(k int) bool { return xs[lo+k] >= v })
}

// Iterate calls fn on every member in ascending order until fn returns
// false.
func (s *RowSet) Iterate(fn func(row int) bool) {
	if s == nil {
		return
	}
	if s.words == nil {
		for _, r := range s.sparse {
			if !fn(int(r)) {
				return
			}
		}
		return
	}
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi<<6 | b) {
				return
			}
			w &= w - 1
		}
	}
}

// ToSorted converts back to the ascending []int posting-list format the
// rest of the system speaks; an empty set yields nil, matching the nil
// conventions of the posting-list producers it replaces.
func (s *RowSet) ToSorted() []int {
	n := s.Count()
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for _, r := range s.sparse {
		out = append(out, int(r))
	}
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			out = append(out, wi<<6|bits.TrailingZeros64(w))
		}
	}
	return out
}

// ResidentBytes returns the heap bytes of the set's backing storage —
// the number the scale track tracks per cached row set.
func (s *RowSet) ResidentBytes() int64 {
	if s == nil {
		return 0
	}
	return int64(cap(s.words))*8 + int64(cap(s.sparse))*4
}

// DenseEquivalentBytes returns what a dense-only representation would
// occupy for this set — the baseline the adaptive form's memory win is
// measured against: the bitset of the universe the set was created for,
// or of its span when that is wider (or no universe was given).
func (s *RowSet) DenseEquivalentBytes() int64 {
	if s == nil {
		return 0
	}
	w := s.spanWords()
	if s.universeWords > w {
		w = s.universeWords
	}
	return int64(w) * 8
}

// Compact finalizes a set that is about to be frozen (the αDB cache
// calls it before storing), and is the one place that picks a built
// set's final form: dense exactly when the cardinality is past the
// sparse limit of the span the members actually cover, whatever form
// the expected count started it in — so the frozen set is a function of
// its contents — with the surviving storage reallocated to exactly fit.
func (s *RowSet) Compact() {
	if s == nil {
		return
	}
	if s.words != nil {
		s.trimWords()
		if count := s.Count(); count <= sparseLimit(len(s.words)) {
			s.sparsify(count)
		}
	} else if w := s.spanWords(); len(s.sparse) > sparseLimit(w) {
		s.densify(w)
	}
	if s.words != nil {
		if cap(s.words) > len(s.words) {
			s.words = append(make([]uint64, 0, len(s.words)), s.words...)
		}
		return
	}
	if cap(s.sparse) > len(s.sparse) {
		s.sparse = append(make([]uint32, 0, len(s.sparse)), s.sparse...)
	}
}

// Form reports the live representation ("sparse" or "dense") for tests
// and diagnostics.
func (s *RowSet) Form() string {
	if s != nil && s.words != nil {
		return "dense"
	}
	return "sparse"
}
