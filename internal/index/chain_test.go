package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The epoch-isolation contract of the layered indexes and the chunked
// vector: a writer clones the newest generation, mutates only its clone,
// and every retired generation keeps answering exactly the state it was
// retired in — although key tables, tail entries, base layers, chunk
// tables and chunks are shared along the whole chain and appends land
// past a retired generation's lengths in the same backing arrays. The
// driver below replays an op stream against the real structures and one
// plain map/slice oracle per generation, and compares every generation
// at the end. The integer keys come in three regions — a small one, a
// near one that bursts fill in until the index is dense, and a far one
// on both sides of zero that makes it sparse for good — so a run folds
// the IntHash out of and into both of its forms.

// chainGen is one generation of every structure under test.
type chainGen struct {
	ints *IntHash
	nums *NumericRows
	pos  Chunked[int] // positional: Append, Set
	srt  Chunked[int] // sorted: InsertAt in order
}

// chainOracle is the plain-data model of one generation.
type chainOracle struct {
	ints map[int64][]uint32
	vals []float64 // numeric pairs in insertion order
	rows []int
	pos  []int
	srt  []int // kept sorted
}

func (o *chainOracle) clone() *chainOracle {
	q := &chainOracle{
		ints: make(map[int64][]uint32, len(o.ints)),
		vals: append([]float64(nil), o.vals...),
		rows: append([]int(nil), o.rows...),
		pos:  append([]int(nil), o.pos...),
		srt:  append([]int(nil), o.srt...),
	}
	for k, v := range o.ints {
		q.ints[k] = append([]uint32(nil), v...)
	}
	return q
}

// chainStats is what a run exercised.
type chainStats struct {
	generations, hashFolds, numFolds, splits, sharedAppends int
	// The IntHash: generations published in each form, folds out of
	// each, folds that changed the form, and retired generations compared
	// with their oracle after their successor had folded the base they
	// share away.
	denseGens, sparseGens, foldsOutOfDense, foldsOutOfSparse int
	denseToSparse, sparseToDense, readAfterFold              int
}

// burstBase places a burst of 40 keys: an even b in one of 32 adjacent
// slots that start above the small keys and move one slot up with each
// of the near bursts placed before it (filled in, the range is dense,
// and it keeps growing past the window), an odd b far away on either
// side of zero.
func burstBase(b, near int) int64 {
	slot := int64(b >> 1)
	switch {
	case b&1 == 0:
		return 48 + 40*(slot%32+int64(near))
	case slot&1 == 0:
		return 1<<40 + 3000*slot
	default:
		return -(1 << 40) - 3000*slot
	}
}

// runCloneChain replays ops and fails t on the first divergence between
// any generation and its oracle.
func runCloneChain(t *testing.T, ops []byte) chainStats {
	t.Helper()
	var st chainStats
	g := new(Gen)
	live := &chainGen{ints: &IntHash{}, nums: &NumericRows{}}
	model := &chainOracle{ints: map[int64][]uint32{}}
	var retired []*chainGen
	var models []*chainOracle
	var foldedAway []bool // retired[i]'s successor folded
	nextRow, near := 0, 0

	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	insertKey := func(k int64) {
		live.ints.Insert(k, nextRow)
		model.ints[k] = append(model.ints[k], uint32(nextRow))
		v := float64(k % 17)
		live.nums = live.nums.Insert(v, nextRow)
		model.vals, model.rows = append(model.vals, v), append(model.rows, nextRow)
		nextRow++
	}
	insertSorted := func(x int) {
		ci, off := live.srt.Search(func(y int) bool { return y >= x })
		live.srt.InsertAt(g, ci, off, x)
		at := sort.SearchInts(model.srt, x)
		model.srt = append(model.srt, 0)
		copy(model.srt[at+1:], model.srt[at:])
		model.srt[at] = x
	}
	appendPos := func(x int) {
		if n := live.pos.NumChunks(); n > 0 && live.pos.chunks[n-1].owner != g && len(live.pos.Chunk(n-1)) < cap(live.pos.Chunk(n-1)) {
			st.sharedAppends++ // grows a chunk a retired generation still reads
		}
		live.pos.Append(g, x)
		model.pos = append(model.pos, x)
	}

	for len(ops) > 0 {
		switch op := next() % 8; op {
		case 0, 1: // insert into a small key space: posting lists grow
			insertKey(int64(next() % 48))
		case 2: // a burst of keys: tails grow towards a fold
			b := next()
			base := burstBase(b, near)
			near += 1 - b&1
			for i := int64(0); i < 40; i++ {
				insertKey(base + i)
			}
		case 3:
			appendPos(next())
		case 4:
			if n := len(model.pos); n > 0 {
				i, x := (next()<<8|next())%n, next()
				live.pos.Set(g, i, x)
				model.pos[i] = x
			}
		case 5:
			insertSorted(next()<<8 | next())
		case 6: // a run of sorted inserts: chunks fill and split
			x := next() << 8
			for i := 0; i < 96; i++ {
				insertSorted(x + 3*i)
			}
			for i := 0; i < 24; i++ {
				appendPos(i)
			}
		case 7: // publish: retire the live generation, clone the next
			retired, models = append(retired, live), append(models, model.clone())
			prev := live
			g = new(Gen)
			live = &chainGen{
				ints: prev.ints.Clone(g), nums: prev.nums.Clone(g),
				pos: prev.pos, srt: prev.srt,
			}
			folded := len(prev.ints.ords.tail) > 0 && len(live.ints.ords.tail) == 0
			foldedAway = append(foldedAway, folded)
			switch {
			case prev.ints.width > 0:
				st.denseGens++
			case len(prev.ints.ords.base) > 0:
				st.sparseGens++
			}
			if folded {
				st.hashFolds++
				switch {
				case prev.ints.width > 0:
					st.foldsOutOfDense++
					if live.ints.width == 0 {
						st.denseToSparse++
					}
				case len(prev.ints.ords.base) > 0:
					st.foldsOutOfSparse++
					if live.ints.width > 0 {
						st.sparseToDense++
					}
				}
			}
			if len(prev.nums.tailVals) > 0 && len(live.nums.tailVals) == 0 {
				st.numFolds++
			}
			st.generations++
		}
	}
	if live.srt.ragged {
		st.splits++
	}
	retired, models = append(retired, live), append(models, model)
	for i := range retired {
		checkChainGen(t, fmt.Sprintf("generation %d of %d", i, len(retired)), retired[i], models[i])
		if t.Failed() {
			t.FailNow()
		}
		if i < len(foldedAway) && foldedAway[i] {
			st.readAfterFold++
		}
	}
	return st
}

func checkChainGen(t *testing.T, at string, got *chainGen, want *chainOracle) {
	t.Helper()
	if got.ints.NumKeys() != len(want.ints) {
		t.Errorf("%s: NumKeys = %d want %d", at, got.ints.NumKeys(), len(want.ints))
	}
	for k, rows := range want.ints {
		if r := slices.Concat(got.ints.Rows(k)); !reflect.DeepEqual(r, rows) {
			t.Errorf("%s: IntHash.Rows(%d) = %v want %v", at, k, r, rows)
		}
		if first, ok := got.ints.First(k); !ok || first != int(rows[0]) {
			t.Errorf("%s: IntHash.First(%d) = %d, %v want %d", at, k, first, ok, rows[0])
		}
	}
	// Keys a later generation inserted must stay absent here, and so
	// must the neighbors of every present key: in a gap of the dense
	// table, below its first slot, above its last.
	absent := func(k int64) {
		if _, has := want.ints[k]; !has {
			if _, ok := got.ints.First(k); ok || slices.Concat(got.ints.Rows(k)) != nil {
				t.Errorf("%s: absent key %d is visible", at, k)
			}
		}
	}
	for k := int64(0); k < 64; k++ {
		absent(k)
	}
	for k := range want.ints {
		absent(k - 1)
		absent(k + 1)
	}

	if got.nums.Len() != len(want.vals) {
		t.Errorf("%s: NumericRows.Len = %d want %d", at, got.nums.Len(), len(want.vals))
	}
	for lo := -1.0; lo < 18; lo += 5 {
		for _, hi := range []float64{lo - 1, lo, lo + 2.5, 40} {
			var rows []int
			for i, v := range want.vals {
				if v >= lo && v <= hi {
					rows = append(rows, want.rows[i])
				}
			}
			sort.Ints(rows)
			if n := got.nums.CountRange(lo, hi); n != len(rows) {
				t.Errorf("%s: CountRange(%v,%v) = %d want %d", at, lo, hi, n, len(rows))
			}
			s := NewRowSet(0, 0)
			got.nums.AddRangeToSet(lo, hi, s)
			if r := s.ToSorted(); len(r)+len(rows) > 0 && !reflect.DeepEqual(r, rows) {
				t.Errorf("%s: AddRangeToSet(%v,%v) = %v want %v", at, lo, hi, r, rows)
			}
			if r := got.nums.RowsInRange(lo, hi); len(r)+len(rows) > 0 && !reflect.DeepEqual(r, rows) {
				t.Errorf("%s: RowsInRange(%v,%v) = %v want %v", at, lo, hi, r, rows)
			}
		}
	}
	if len(want.vals) > 0 {
		lo, hi := want.vals[0], want.vals[0]
		for _, v := range want.vals {
			lo, hi = min(lo, v), max(hi, v)
		}
		if got.nums.Min() != lo || got.nums.Max() != hi {
			t.Errorf("%s: Min/Max = %v/%v want %v/%v", at, got.nums.Min(), got.nums.Max(), lo, hi)
		}
		vals, rows := got.nums.merged()
		if !sort.Float64sAreSorted(vals) || len(rows) != len(want.rows) {
			t.Errorf("%s: merged pairs unsorted or short (%d pairs)", at, len(rows))
		}
	}

	checkChunked(t, at+": positional vector", &got.pos, want.pos)
	checkChunked(t, at+": sorted vector", &got.srt, want.srt)
}

func checkChunked(t *testing.T, at string, got *Chunked[int], want []int) {
	t.Helper()
	if got.Len() != len(want) {
		t.Errorf("%s: Len = %d want %d", at, got.Len(), len(want))
		return
	}
	var flat []int
	for ci := 0; ci < got.NumChunks(); ci++ {
		c := got.Chunk(ci)
		if len(c) == 0 || len(c) > chunkCap {
			t.Errorf("%s: chunk %d holds %d elements", at, ci, len(c))
		}
		flat = append(flat, c...)
	}
	if len(want) > 0 && !reflect.DeepEqual(flat, want) {
		t.Errorf("%s: chunks hold %v want %v", at, flat, want)
		return
	}
	// At walks the chunks of a ragged vector: sample it.
	for i := 0; i < len(want); i += 1 + len(want)/64 {
		if got.At(i) != want[i] || *got.Ref(i) != want[i] {
			t.Errorf("%s: At(%d) = %d want %d", at, i, got.At(i), want[i])
			return
		}
	}
}

// chainOps draws an op stream of exactly generations publishes, each
// op followed by the arguments runCloneChain reads for it. Bursts stay
// near for the first two thirds of it, so the integer index has the
// time to fill in and turn dense before a far burst makes it sparse
// for good.
func chainOps(rng *rand.Rand, generations int) []byte {
	args := [8]int{1, 1, 1, 1, 3, 2, 1, 0}
	var ops []byte
	for published := 0; published < generations; {
		op := byte(rng.Intn(8))
		if op == 7 && rng.Intn(2) == 0 {
			continue // a dozen writes per generation
		}
		if op == 7 {
			published++
		}
		ops = append(ops, op)
		for i := 0; i < args[op]; i++ {
			ops = append(ops, byte(rng.Intn(256)))
		}
		if op == 2 && 3*published < 2*generations {
			ops[len(ops)-1] &^= 1
		}
	}
	return ops
}

// TestCloneChainIsolation drives 60 generations per seed and insists the
// run crossed what the isolation argument is about: hash and numeric
// tails folded more than once; the integer index was published in both
// forms, folded out of each at least twice and from each into the
// other, and retired generations were read after their successors had
// folded; a sorted list split a chunk; and a partially filled last chunk
// was appended through a clone while a retired generation still read
// it.
func TestCloneChainIsolation(t *testing.T) {
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		st := runCloneChain(t, chainOps(rand.New(rand.NewSource(seed)), 60))
		t.Logf("seed %d: %+v", seed, st)
		if st.generations != 60 || st.hashFolds < 2 || st.numFolds < 2 || st.splits == 0 || st.sharedAppends == 0 {
			t.Errorf("seed %d exercised too little: %+v", seed, st)
		}
		if st.denseGens == 0 || st.sparseGens == 0 || st.foldsOutOfDense < 2 || st.foldsOutOfSparse < 2 ||
			st.denseToSparse == 0 || st.sparseToDense == 0 || st.readAfterFold < 2 {
			t.Errorf("seed %d did not fold through both base forms: %+v", seed, st)
		}
	}
}

// FuzzHashCloneChain lets the fuzzer pick the interleaving.
func FuzzHashCloneChain(f *testing.F) {
	f.Add(chainOps(rand.New(rand.NewSource(7)), 8))
	f.Add([]byte{2, 1, 7, 2, 2, 7, 0, 5, 7, 6, 9, 7, 6, 9, 7, 4, 0, 3, 9, 7, 3, 1})
	f.Add(chainOps(rand.New(rand.NewSource(1)), 60)) // folds sparse → dense → sparse
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runCloneChain(t, ops)
	})
}

// TestChunkedSplitAndAppend pins the two chunk-boundary behaviors on
// their own: an in-order insert into a full chunk splits it for the
// writer only, and an append through a clone grows the shared last
// chunk in place without the retired header seeing it.
func TestChunkedSplitAndAppend(t *testing.T) {
	var flat []int
	for i := 0; i < 2*chunkCap; i++ {
		flat = append(flat, 2*i)
	}
	old := ChunkedOf(flat)
	next, g := old, new(Gen)
	ci, off := next.Search(func(y int) bool { return y >= 101 })
	next.InsertAt(g, ci, off, 101)
	if old.NumChunks() != 2 || old.Len() != 2*chunkCap || old.ragged {
		t.Fatalf("split leaked into the retired vector: %d chunks, %d elements", old.NumChunks(), old.Len())
	}
	if next.NumChunks() != 3 || !next.ragged || next.At(51) != 101 || next.At(52) != 102 {
		t.Fatalf("split vector: %d chunks, At(51)=%d", next.NumChunks(), next.At(51))
	}
	if want := int64(chunkCap*8 + 2*32); g.Copied != want {
		t.Errorf("split copied %d bytes, want one chunk and the table (%d)", g.Copied, want)
	}

	var v Chunked[int]
	for i := 0; i < chunkCap+10; i++ {
		v.Append(nil, i)
	}
	retiredV := v
	g2 := new(Gen)
	v.Append(g2, -1)
	if retiredV.Len() != chunkCap+10 || len(retiredV.Chunk(1)) != 10 {
		t.Fatalf("append through a clone changed the retired vector")
	}
	if v.At(chunkCap+10) != -1 || &v.Chunk(1)[0] != &retiredV.Chunk(1)[0] {
		t.Errorf("append copied the shared last chunk instead of growing it in place")
	}
	v.Set(g2, chunkCap+3, -7)
	if retiredV.At(chunkCap+3) != chunkCap+3 || v.At(chunkCap+3) != -7 {
		t.Errorf("Set through a clone reached the retired vector")
	}
}
