package index

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// opUniverse bounds replayed rows so dense storage stays small (64
// words) while leaving room for every form transition: densify on
// clustered fills, sparsify on draining intersections, grow on
// out-of-span adds.
const opUniverse = 1 << 12

// applyOps interprets data as a little op language over one RowSet and
// replays every op against a map oracle, failing on the first
// divergence in contents, cardinality, membership, or the sparse
// sorted-unique invariant. Every op records the form (or, for the
// binary op, the receiver×operand form pair) it ran on in seen, so
// callers can prove which arms of the form-aware algebra a replay
// reached. The receiver starts from the sized constructor — sparse or
// dense by the first byte — and the sized op replaces it with a fresh
// one whose expected count is honest, short or long of what it then
// receives, so every later op also runs on sets that began in either
// form at a wrong size.
func applyOps(t *testing.T, data []byte, seen map[string]bool) {
	t.Helper()
	ref := map[int]bool{}
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := int(data[pos])
		pos++
		return b
	}
	nextRow := func() int {
		hi := next()
		lo := next()
		return (hi<<8 | lo) % opUniverse
	}
	// nextRows draws the row list of a bulk op: either scattered rows
	// (sparse-shaped) or a contiguous run long enough to densify, so the
	// receiver reaches both forms and the binary op sees every
	// form×form combination.
	nextRows := func() []int {
		var rows []int
		if next()%2 == 0 {
			k := next() % 32
			for i := 0; i < k; i++ {
				rows = append(rows, nextRow())
			}
			return rows
		}
		start := nextRow()
		n := next() * 4
		for r := start; r < start+n && r < opUniverse; r++ {
			rows = append(rows, r)
		}
		return rows
	}
	// operand builds the right-hand set of AndWith.
	operand := func() (*RowSet, map[int]bool) {
		rows := nextRows()
		m := map[int]bool{}
		for _, r := range rows {
			m[r] = true
		}
		return RowSetFromSorted(rows), m
	}
	s := NewRowSet(opUniverse, next()%2*opUniverse)
	seen["sized:"+s.Form()] = true
	for pos < len(data) {
		switch next() % 8 {
		case 0:
			r := nextRow()
			seen["add:"+s.Form()] = true
			s.Add(r)
			ref[r] = true
		case 1:
			rows := nextRows()
			seen["addall:"+s.Form()] = true
			s.AddInts(rows)
			for _, r := range rows {
				ref[r] = true
			}
		case 2:
			o, m := operand()
			seen["and:"+s.Form()+"x"+o.Form()] = true
			remaining := s.AndWith(o)
			for r := range ref {
				if !m[r] {
					delete(ref, r)
				}
			}
			if remaining != (len(ref) > 0) {
				t.Fatalf("AndWith reported remaining=%v with %d rows left", remaining, len(ref))
			}
		case 3:
			// Clone-detach check: mutating the clone must not leak into
			// the original, whatever form it is in.
			seen["clone:"+s.Form()] = true
			before := s.ToSorted()
			c := s.Clone()
			c.Add(nextRow())
			c.AndWith(RowSetFromSorted([]int{nextRow()}))
			if got := s.ToSorted(); !reflect.DeepEqual(got, before) {
				t.Fatalf("original changed through clone: %v -> %v", before, got)
			}
		case 4:
			s = s.Clone()
		case 5:
			r := nextRow()
			seen["contains:"+s.Form()] = true
			if got, want := s.Contains(r), ref[r]; got != want {
				t.Fatalf("Contains(%d) = %v, want %v", r, got, want)
			}
		case 6:
			// A builder's fill: the form picked from an expected count
			// that is exact, half or double the rows that follow, filled
			// in bulk or a row at a time.
			rows := nextRows()
			count := len(rows)
			switch next() % 3 {
			case 1:
				count /= 2
			case 2:
				count *= 2
			}
			s = NewRowSet(opUniverse-next()%2*opUniverse/2, count)
			seen["sized:"+s.Form()] = true
			if next()%2 == 0 {
				s.AddInts(rows)
			} else {
				for _, r := range rows {
					s.Add(r)
				}
			}
			clear(ref)
			for _, r := range rows {
				ref[r] = true
			}
		case 7:
			// Freeze: the contents stay and the form becomes a function
			// of them alone.
			seen["compact:"+s.Form()] = true
			s.Compact()
			if dense := len(ref) > sparseLimit(s.spanWords()); dense != (s.Form() == "dense") {
				t.Fatalf("compacted %d members over %d words to the %s form", len(ref), s.spanWords(), s.Form())
			}
			if s.ResidentBytes() != int64(len(s.words))*8+int64(len(s.sparse))*4 {
				t.Fatalf("compacted set keeps slack: %d resident bytes", s.ResidentBytes())
			}
		}
		checkOracle(t, s, ref)
	}
}

// checkOracle compares a set against its map oracle and verifies the
// representation invariants the frozen-read contract depends on.
func checkOracle(t *testing.T, s *RowSet, ref map[int]bool) {
	t.Helper()
	if got, want := s.Count(), len(ref); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	want := make([]int, 0, len(ref))
	for r := range ref {
		want = append(want, r)
	}
	sort.Ints(want)
	if len(want) == 0 {
		want = nil
	}
	if got := s.ToSorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("contents = %v, want %v (form %s)", got, want, s.Form())
	}
	// The sparse form must hold the sorted-unique invariant after every
	// mutation — readers binary-search it without normalizing.
	for i := 1; i < len(s.sparse); i++ {
		if s.sparse[i] <= s.sparse[i-1] {
			t.Fatalf("sparse invariant broken at %d: %v", i, s.sparse)
		}
	}
}

// TestRowSetRandomOpParity replays random op sequences, checking
// against the map oracle at every step. This is the deterministic twin
// of FuzzRowSetOps; it fails unless the sequences drove every op —
// the sized constructor and the freeze included — through both forms
// and AndWith through all four receiver×operand form pairs, so the
// dense algebra cannot silently drop out of coverage.
func TestRowSetRandomOpParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seen := map[string]bool{}
	for i := 0; i < 250; i++ {
		data := make([]byte, 40+rng.Intn(400))
		rng.Read(data)
		applyOps(t, data, seen)
	}
	forms := []string{"sparse", "dense"}
	for _, f := range forms {
		for _, op := range []string{"sized", "add", "addall", "clone", "contains", "compact"} {
			if !seen[op+":"+f] {
				t.Errorf("no sequence ran %s on a %s set", op, f)
			}
		}
		for _, g := range forms {
			if !seen["and:"+f+"x"+g] {
				t.Errorf("no sequence ran and on %s x %s", f, g)
			}
		}
	}
}

// rangeRows returns the ascending rows of [lo, hi).
func rangeRows(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, r)
	}
	return out
}

// TestRowSetFormTransitions pins where a form is decided: the expected
// count picks it up front against the universe's sparse limit, a sparse
// set that outgrows that limit densifies to the universe's span, Compact
// re-picks against the span the members cover, and a draining
// intersection sparsifies and releases the bitset.
func TestRowSetFormTransitions(t *testing.T) {
	const universe = 1 << 20
	limit := sparseLimit(universe >> 6)
	if s := NewRowSet(universe, limit); s.Form() != "sparse" || cap(s.sparse) != limit {
		t.Fatalf("a set sized at the limit: form %s, capacity %d", s.Form(), cap(s.sparse))
	}
	if s := NewRowSet(universe, limit+1); s.Form() != "dense" || len(s.words) != universe>>6 {
		t.Fatalf("a set sized past the limit: form %s, %d words", s.Form(), len(s.words))
	}
	// 100 clustered members are far under the universe's limit: the fill
	// leaves them sparse, and the freeze, which sees two words, does not.
	s := NewRowSet(universe, 100)
	s.AddInts(rangeRows(0, 100))
	if s.Form() != "sparse" || cap(s.sparse) != 100 {
		t.Fatalf("sized fill: form %s, capacity %d", s.Form(), cap(s.sparse))
	}
	s.Compact()
	if s.Form() != "dense" || len(s.words) != 2 {
		t.Fatalf("frozen clustered 100-member set: form %s, %d words", s.Form(), len(s.words))
	}
	// A fill that breaks its promise still ends in the right form: past
	// the universe's limit the sparse start densifies, at the universe's
	// span, once.
	under := NewRowSet(universe, 0)
	for r := 0; r <= limit; r++ {
		under.Add(r)
	}
	if under.Form() != "dense" || len(under.words) != universe>>6 || under.Count() != limit+1 {
		t.Fatalf("outgrown sparse set: form %s, %d words, %d members", under.Form(), len(under.words), under.Count())
	}
	// Intersecting down to 2 rows crosses the hysteresis and drops the
	// bitset.
	s.AndWith(RowSetFromSorted([]int{4, 8}))
	if s.Form() != "sparse" {
		t.Fatalf("post-intersection form = %s, want sparse", s.Form())
	}
	if got := s.ToSorted(); !reflect.DeepEqual(got, []int{4, 8}) {
		t.Fatalf("post-intersection contents = %v", got)
	}
	if rb := s.ResidentBytes(); rb > 64 {
		t.Fatalf("sparsified set still resident at %d bytes", rb)
	}
}

// TestRowSetFromSortedSizesOffTrueMax pins the pre-sizing fix: unsorted
// input whose maximum is NOT the last element must still produce a
// correctly-sized set (the old code sized the bitset off rows[len-1]).
func TestRowSetFromSortedSizesOffTrueMax(t *testing.T) {
	// Descending, duplicate-heavy, dense-bound input: last element is
	// the minimum.
	var rows []int
	for r := 1999; r >= 0; r-- {
		rows = append(rows, r, r)
	}
	s := RowSetFromSorted(rows)
	if got := s.Count(); got != 2000 {
		t.Fatalf("Count = %d, want 2000", got)
	}
	if s.Form() != "dense" {
		t.Fatalf("form = %s, want dense", s.Form())
	}
	if !s.Contains(1999) || !s.Contains(0) {
		t.Fatal("extremes missing")
	}
	// Sparse-bound variant with the max first.
	sp := RowSetFromSorted([]int{100000, 5, 5, 70})
	if got := sp.ToSorted(); !reflect.DeepEqual(got, []int{5, 70, 100000}) {
		t.Fatalf("sparse unsorted round trip = %v", got)
	}
}

// TestRowSetAndWithShrinksStorage pins the storage-shrink half of
// AndWith: trailing all-zero words are truncated (not scanned and
// kept), and a drained dense set releases its bitset entirely.
func TestRowSetAndWithShrinksStorage(t *testing.T) {
	universe := 100000
	a := RowSetFromSorted(rangeRows(0, universe))
	before := a.ResidentBytes()
	if a.Form() != "dense" || before < int64(universe/8) {
		t.Fatalf("setup: form %s, %d bytes", a.Form(), before)
	}

	// Dense ∩ singleton drains to the sparse form — bitset gone.
	a.AndWith(RowSetFromSorted([]int{12345}))
	if a.Form() != "sparse" || a.Count() != 1 {
		t.Fatalf("drained set: form %s count %d", a.Form(), a.Count())
	}
	if rb := a.ResidentBytes(); rb > 64 {
		t.Fatalf("drained set still resident at %d bytes (was %d)", rb, before)
	}

	// Dense ∩ dense with a short operand truncates to the operand's
	// span and reallocates away the dead capacity.
	c := RowSetFromSorted(rangeRows(0, universe))
	d := RowSetFromSorted(rangeRows(0, 3000))
	if d.Form() != "dense" {
		t.Fatalf("operand form = %s, want dense", d.Form())
	}
	c.AndWith(d)
	if got, want := c.Count(), 3000; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if c.spanWords() > d.spanWords() {
		t.Fatalf("trailing zero words kept: span %d > %d", c.spanWords(), d.spanWords())
	}
	if rb := c.ResidentBytes(); rb > before/8 {
		t.Fatalf("truncated set still resident at %d bytes (was %d)", rb, before)
	}

	// Empty operand: storage released, early-exit signalled.
	e := RowSetFromSorted(rangeRows(0, universe))
	if e.AndWith(NewRowSet(0, 0)) {
		t.Fatal("AndWith(empty) reported remaining rows")
	}
	if rb := e.ResidentBytes(); rb != 0 {
		t.Fatalf("empty result resident at %d bytes", rb)
	}
}

// TestRowSetFrozenConcurrentReads drives every read-only method from
// concurrent goroutines against frozen sets of both forms — the cached
// row-set contract. Run under -race this fails if any "read" method
// mutates the representation.
func TestRowSetFrozenConcurrentReads(t *testing.T) {
	sparse := RowSetFromSorted([]int{3, 70, 900, 4096})
	dense := RowSetFromSorted(rangeRows(0, 3000))
	if sparse.Form() != "sparse" || dense.Form() != "dense" {
		t.Fatalf("setup forms: %s/%s", sparse.Form(), dense.Form())
	}
	var wg sync.WaitGroup
	for _, frozen := range []*RowSet{sparse, dense} {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(s *RowSet) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					s.Contains(i)
					s.Count()
					s.ToSorted()
					s.ResidentBytes()
					s.DenseEquivalentBytes()
					s.Form()
					s.Iterate(func(int) bool { return true })
					// Mutations go through a private clone; the frozen
					// set is only ever a read operand.
					c := s.Clone()
					c.AndWith(s)
				}
			}(frozen)
		}
	}
	wg.Wait()
	if got := sparse.ToSorted(); !reflect.DeepEqual(got, []int{3, 70, 900, 4096}) {
		t.Fatalf("frozen sparse set changed: %v", got)
	}
	if got := dense.Count(); got != 3000 {
		t.Fatalf("frozen dense set changed: count %d", got)
	}
}
