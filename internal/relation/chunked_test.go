package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// The epoch-isolation contract of the chunked vector: a writer clones
// the newest generation (a header copy), mutates only its clone through
// its own Gen, and every retired generation keeps answering exactly the
// elements it was retired with — although chunk tables and chunks are
// shared along the whole chain and appends land past a retired
// generation's length in the same backing arrays. The driver replays an
// op stream against a positional and a sorted vector and one plain
// slice oracle each per generation, and compares every generation at
// the end.

// chunkedGen is one generation of both vectors.
type chunkedGen struct {
	pos Chunked[int] // positional: Append, Set
	srt Chunked[int] // sorted: InsertAt in order
}

// chunkedOracle is the plain-data model of one generation.
type chunkedOracle struct {
	pos, srt []int // srt kept sorted
}

// chunkedStats is what a run exercised.
type chunkedStats struct {
	generations, splits, sharedAppends int
}

// runChunkedChain replays ops and fails t on the first divergence
// between any generation and its oracle.
func runChunkedChain(t *testing.T, ops []byte) chunkedStats {
	t.Helper()
	var st chunkedStats
	g := new(Gen)
	live := chunkedGen{}
	model := chunkedOracle{}
	var retired []chunkedGen
	var models []chunkedOracle

	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
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
		switch op := next() % 5; op {
		case 0:
			appendPos(next())
		case 1:
			i, x := next()<<8|next(), next()
			if n := len(model.pos); n > 0 {
				i %= n
				live.pos.Set(g, i, x)
				model.pos[i] = x
			}
		case 2:
			insertSorted(next()<<8 | next())
		case 3: // a run of sorted inserts: chunks fill and split
			x := next() << 8
			for i := 0; i < 96; i++ {
				insertSorted(x + 3*i)
			}
			for i := 0; i < 24; i++ {
				appendPos(i)
			}
		case 4: // publish: retire the live generation, clone the next
			retired = append(retired, live)
			models = append(models, chunkedOracle{pos: append([]int(nil), model.pos...), srt: append([]int(nil), model.srt...)})
			g = new(Gen)
			st.generations++
		}
	}
	if live.srt.ragged {
		st.splits++
	}
	retired, models = append(retired, live), append(models, model)
	for i := range retired {
		at := fmt.Sprintf("generation %d of %d", i, len(retired))
		checkChunked(t, at+": positional vector", &retired[i].pos, models[i].pos)
		checkChunked(t, at+": sorted vector", &retired[i].srt, models[i].srt)
		if t.Failed() {
			t.FailNow()
		}
	}
	return st
}

func checkChunked(t *testing.T, at string, got *Chunked[int], want []int) {
	t.Helper()
	if got.Len() != len(want) {
		t.Errorf("%s: Len = %d want %d", at, got.Len(), len(want))
		return
	}
	rest := want
	for ci := 0; ci < got.NumChunks(); ci++ {
		c := got.Chunk(ci)
		if len(c) == 0 || len(c) > chunkCap || len(c) > len(rest) {
			t.Errorf("%s: chunk %d holds %d elements", at, ci, len(c))
			return
		}
		if !slices.Equal(c, rest[:len(c)]) || got.First(ci) != c[0] {
			t.Errorf("%s: chunk %d holds %v want %v, its table entry's first %d", at, ci, c, rest[:len(c)], got.First(ci))
			return
		}
		rest = rest[len(c):]
	}
	// At walks the chunks of a ragged vector: sample it.
	for i := 0; i < len(want); i += 1 + len(want)/64 {
		if got.At(i) != want[i] || *got.Ref(i) != want[i] {
			t.Errorf("%s: At(%d) = %d want %d", at, i, got.At(i), want[i])
			return
		}
	}
}

// chunkedOps draws an op stream of the given number of publishes,
// about a dozen writes per generation.
func chunkedOps(rng *rand.Rand, publishes int) []byte {
	var ops []byte
	for published := 0; published < publishes; {
		op := byte(rng.Intn(5))
		if op == 4 && rng.Intn(3) != 0 {
			continue
		}
		if op == 4 {
			published++
		}
		ops = append(ops, op)
		for i := 0; i < [5]int{1, 3, 2, 1, 0}[op]; i++ {
			ops = append(ops, byte(rng.Intn(256)))
		}
	}
	return ops
}

// TestChunkedCloneChain drives 60 generations per seed and insists the
// run split a chunk of the sorted vector and appended to a partially
// filled last chunk through a clone while a retired generation still
// read it.
func TestChunkedCloneChain(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		st := runChunkedChain(t, chunkedOps(rand.New(rand.NewSource(seed)), 60))
		t.Logf("seed %d: %+v", seed, st)
		if st.generations != 60 || st.splits == 0 || st.sharedAppends == 0 {
			t.Errorf("seed %d exercised too little: %+v", seed, st)
		}
	}
}

// FuzzChunkedCloneChain lets the fuzzer pick the interleaving.
func FuzzChunkedCloneChain(f *testing.F) {
	for seed := int64(1); seed <= 2; seed++ {
		f.Add(chunkedOps(rand.New(rand.NewSource(seed)), 60))
	}
	f.Add([]byte{3, 1, 4, 0, 9, 1, 0, 5, 7, 4, 3, 2, 0, 0, 9, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runChunkedChain(t, ops)
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
	if want := int64(chunkCap*8) + 2*int64(unsafe.Sizeof(chunk[int]{})); g.Copied != want {
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
