package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"squid/internal/relation"
)

// The epoch-isolation contract of the hash index: a writer clones the
// newest generation, mutates only its clone, and every retired
// generation keeps answering exactly the state it was retired in —
// although key tables, tail entries and base layers are shared along
// the whole chain and appends land past a retired generation's lengths
// in the same backing arrays. The driver below replays an op stream
// against two indexes and one plain map oracle per index and
// generation, and compares every generation at the end.
//
// The first index starts empty. Its integer keys come in three regions
// — a small one, a near one that bursts fill in until the index is
// dense, and a far one on both sides of zero that makes it sparse for
// good — so a run folds it out of and into both of its forms. The
// second starts as a dense window built over a clustered column: runs
// of inserts fold its lists alone under the same window, and new keys
// past the window fold its key table and widen the window.

// chainGen is one generation of both indexes.
type chainGen struct {
	ints, ord *IntHash
}

// chainOracle is the plain-data model of one generation.
type chainOracle struct {
	ints, ord map[int64][]uint32
}

func cloneRows(m map[int64][]uint32) map[int64][]uint32 {
	q := make(map[int64][]uint32, len(m))
	for k, v := range m {
		q[k] = slices.Clone(v)
	}
	return q
}

func (o *chainOracle) clone() *chainOracle {
	return &chainOracle{ints: cloneRows(o.ints), ord: cloneRows(o.ord)}
}

// chainStats is what a run exercised.
type chainStats struct {
	generations, hashFolds int
	// The first index: generations published in each form, folds out of
	// each, folds that changed the form, and retired generations compared
	// with their oracle after their successor had folded the base they
	// share away.
	denseGens, sparseGens, foldsOutOfDense, foldsOutOfSparse int
	denseToSparse, sparseToDense, readAfterFold              int
	// The second: folds of its lists alone under an unchanged window,
	// and folds of its key table that widened the window.
	listFolds, windowFolds int
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

// clusteredBase is the second index's first generation: 256 rows, four
// to each of the keys 0 to 63, in key order.
func clusteredBase(t *testing.T) (*IntHash, map[int64][]uint32) {
	t.Helper()
	keys := make([]int64, 256)
	want := map[int64][]uint32{}
	for row := range keys {
		keys[row] = int64(row / 4)
		want[keys[row]] = append(want[keys[row]], uint32(row))
	}
	h := BuildIntHash(intColumn(cellsOf(keys...)), "k")
	if h.width != 64 || len(h.lists.flat) != len(keys) {
		t.Fatalf("a clustered column built a window of %d over %d stored rows", h.width, len(h.lists.flat))
	}
	return h, want
}

// runCloneChain replays ops and fails t on the first divergence between
// any generation and its oracle.
func runCloneChain(t *testing.T, ops []byte) chainStats {
	t.Helper()
	var st chainStats
	ord, ordWant := clusteredBase(t)
	live := &chainGen{ints: &IntHash{}, ord: ord}
	model := &chainOracle{ints: map[int64][]uint32{}, ord: ordWant}
	var retired []*chainGen
	var models []*chainOracle
	var foldedAway []bool // retired[i]'s successor folded
	nextRow, near := 0, 0
	ordRow, ordMax := 256, int64(63)

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
		nextRow++
	}
	insertOrd := func(k int64) {
		live.ord.Insert(k, ordRow)
		model.ord[k] = append(model.ord[k], uint32(ordRow))
		ordRow++
		ordMax = max(ordMax, k)
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
		case 3: // under the largest key or the next
			insertOrd(ordMax + int64(next()%2))
		case 4: // under any key so far
			insertOrd(int64(next()) % (ordMax + 1))
		case 5: // a run of rows: the lists fold
			for i := 0; i < 24; i++ {
				insertOrd(ordMax + int64(i%2))
			}
		case 6: // new keys past the window: the key table folds
			for i := 0; i < 40; i++ {
				insertOrd(ordMax + 1)
			}
		case 7: // publish: retire the live generation, clone the next
			retired, models = append(retired, live), append(models, model.clone())
			prev := live
			g := new(relation.Gen)
			live = &chainGen{ints: prev.ints.Clone(g), ord: prev.ord.Clone(g)}
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
			if &live.ord.lists.offs[0] != &prev.ord.lists.offs[0] { // folded
				if live.ord.lo == prev.ord.lo && live.ord.width == prev.ord.width {
					st.listFolds++
				} else {
					st.windowFolds++
				}
			}
			st.generations++
		}
	}
	retired, models = append(retired, live), append(models, model)
	for i := range retired {
		at := fmt.Sprintf("generation %d of %d", i, len(retired))
		checkChainHash(t, at+": empty-start index", retired[i].ints, models[i].ints)
		checkChainHash(t, at+": clustered index", retired[i].ord, models[i].ord)
		if t.Failed() {
			t.FailNow()
		}
		if i < len(foldedAway) && foldedAway[i] {
			st.readAfterFold++
		}
	}
	return st
}

func checkChainHash(t *testing.T, at string, got *IntHash, want map[int64][]uint32) {
	t.Helper()
	if got.NumKeys() != len(want) {
		t.Errorf("%s: NumKeys = %d want %d", at, got.NumKeys(), len(want))
	}
	for k, rows := range want {
		if r := slices.Concat(got.Rows(k)); !reflect.DeepEqual(r, rows) {
			t.Errorf("%s: Rows(%d) = %v want %v", at, k, r, rows)
		}
		if first, ok := got.First(k); !ok || first != int(rows[0]) {
			t.Errorf("%s: First(%d) = %d, %v want %d", at, k, first, ok, rows[0])
		}
	}
	// Keys a later generation inserted must stay absent here, and so
	// must the neighbors of every present key: in a gap of the dense
	// table, below its first slot, above its last.
	absent := func(k int64) {
		if _, has := want[k]; !has {
			if _, ok := got.First(k); ok || slices.Concat(got.Rows(k)) != nil {
				t.Errorf("%s: absent key %d is visible", at, k)
			}
		}
	}
	for k := int64(0); k < 64; k++ {
		absent(k)
	}
	for k := range want {
		absent(k - 1)
		absent(k + 1)
	}
}

// chainOps draws an op stream of exactly generations publishes, each
// op followed by the arguments runCloneChain reads for it. Bursts stay
// near for the first two thirds of it, so the first index has the time
// to fill in and turn dense before a far burst makes it sparse for
// good.
func chainOps(rng *rand.Rand, generations int) []byte {
	args := [8]int{1, 1, 1, 1, 1, 0, 0, 0}
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
// run crossed what the isolation argument is about: hash tails folded
// more than once; the first index was published in both forms, folded
// out of each at least twice and from each into the other, and retired
// generations were read after their successors had folded; the second
// folded its lists alone under an unchanged window, and its key table
// into a wider one.
func TestCloneChainIsolation(t *testing.T) {
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		st := runCloneChain(t, chainOps(rand.New(rand.NewSource(seed)), 60))
		t.Logf("seed %d: %+v", seed, st)
		if st.generations != 60 || st.hashFolds < 2 {
			t.Errorf("seed %d exercised too little: %+v", seed, st)
		}
		if st.denseGens == 0 || st.sparseGens == 0 || st.foldsOutOfDense < 2 || st.foldsOutOfSparse < 2 ||
			st.denseToSparse == 0 || st.sparseToDense == 0 || st.readAfterFold < 2 {
			t.Errorf("seed %d did not fold through both base forms: %+v", seed, st)
		}
		if st.listFolds == 0 || st.windowFolds == 0 {
			t.Errorf("seed %d did not fold the clustered index both ways: %+v", seed, st)
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
