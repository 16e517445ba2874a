package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"squid/internal/relation"
)

// The epoch-isolation contract of the hash index: a writer's
// IndexDelta clones the newest generation's index on its first write —
// or rebuilds it from the writer's relation once its key table has
// passed the fold rule — mutates only its own copy, and every retired
// generation keeps answering exactly the state it was retired in,
// although key tables, tail entries and base layers are shared along
// the whole chain and appends land past a retired generation's lengths
// in the same backing arrays. The driver below replays an op stream of
// row appends to two relations, noted on one IndexDelta a generation as
// the αDB's writer notes them, against one plain map oracle per index
// and generation, and compares every generation at the end with its
// oracle and with BuildIntHash over that generation's relation.
//
// The first index starts empty. Its integer keys come in three regions
// — a small one, a near one that bursts fill in until the index is
// dense, and a far one on both sides of zero that makes it sparse for
// good — so a run rebuilds it out of and into both of its forms. The
// second starts as a dense window built over a clustered column: runs
// of inserts fold its lists alone under the same window, and new keys
// past the window rebuild it with a wider one. Its runs of rows under
// one key fold that key's run into a bitmap and grow the bitmap by its
// tail, and the rows the relation gains meanwhile widen the universe
// until a fold lays a bitmap out as a run again.

// chainGen is one generation: both relations, each with one column k,
// and the index set over them.
type chainGen struct {
	ints, ord *relation.Relation
	set       *IndexSet
}

func (g *chainGen) hashes() (ints, ord *IntHash) {
	return g.set.ResidentIntHash(g.ints, "k"), g.set.ResidentIntHash(g.ord, "k")
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
	// The first index: generations published in each form, rebuilds out
	// of each, rebuilds that changed the form, and retired generations
	// compared with their oracle after their successor had rebuilt the
	// index they share.
	denseGens, sparseGens, foldsOutOfDense, foldsOutOfSparse int
	denseToSparse, sparseToDense, readAfterFold              int
	// The second: folds of its lists alone under an unchanged window,
	// and rebuilds that widened the window.
	listFolds, windowFolds int
	// Lists those folds laid out the other way, and bitmaps they folded
	// with tail rows.
	runToBitmap, bitmapToRun, bitmapTailFolds int
}

// keysRebuilt reports whether next is a rebuild of prev: a new window or
// a new key map, which only BuildIntHash lays out.
func keysRebuilt(prev, next *IntHash) bool {
	return prev.lo != next.lo || prev.width != next.width ||
		reflect.ValueOf(prev.ords.base).UnsafePointer() != reflect.ValueOf(next.ords.base).UnsafePointer()
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

// keyRelation is a relation named name of one INTEGER column k holding
// keys.
func keyRelation(name string, keys []int64) *relation.Relation {
	rel := relation.New(name, relation.Col("k", relation.Int))
	for _, k := range keys {
		rel.MustAppend(relation.IntVal(k))
	}
	return rel
}

// clusteredBase is the second relation's first generation: 256 rows,
// four to each of the keys 0 to 63, in key order.
func clusteredBase(t *testing.T) (*relation.Relation, map[int64][]uint32) {
	t.Helper()
	keys := make([]int64, 256)
	want := map[int64][]uint32{}
	for row := range keys {
		keys[row] = int64(row / 4)
		want[keys[row]] = append(want[keys[row]], uint32(row))
	}
	rel := keyRelation("ord", keys)
	if h := BuildIntHash(rel, "k"); h.width != 64 || len(h.lists.flat) != len(keys) {
		t.Fatalf("a clustered column built a window of %d over %d stored rows", h.width, len(h.lists.flat))
	}
	return rel, want
}

// runCloneChain replays ops and fails t on the first divergence between
// any generation and its oracle.
func runCloneChain(t *testing.T, ops []byte) chainStats {
	t.Helper()
	var st chainStats
	ordRel, ordWant := clusteredBase(t)
	cur := &chainGen{ints: keyRelation("ints", nil), ord: ordRel, set: NewIndexSet()}
	for _, rel := range []*relation.Relation{cur.ints, cur.ord} {
		cur.set.AdoptIntHash(rel.Name, "k", BuildIntHash(rel, "k"))
	}
	model := &chainOracle{ints: map[int64][]uint32{}, ord: ordWant}
	gens, models := []*chainGen{cur}, []*chainOracle{model.clone()}
	var foldedAway []bool // gens[i]'s successor rebuilt the first index
	ordMax := int64(63)

	// The writer of the next generation.
	var ints, ord *relation.Relation
	var delta *IndexDelta
	begin := func() {
		ints, ord = cur.ints.CloneForWrite(nil), cur.ord.CloneForWrite(nil)
		delta = NewIndexDelta(cur.set, new(relation.Gen))
	}
	publish := func() {
		pub := &chainGen{ints: ints, ord: ord, set: delta.MergeInto(cur.set)}
		prevInts, prevOrd := cur.hashes()
		nextInts, nextOrd := pub.hashes()
		switch {
		case nextInts.width > 0:
			st.denseGens++
		case len(nextInts.ords.base) > 0:
			st.sparseGens++
		}
		folded := keysRebuilt(prevInts, nextInts)
		foldedAway = append(foldedAway, folded)
		if folded {
			st.hashFolds++
			switch {
			case prevInts.width > 0:
				st.foldsOutOfDense++
				if nextInts.width == 0 {
					st.denseToSparse++
				}
			case len(prevInts.ords.base) > 0:
				st.foldsOutOfSparse++
				if nextInts.width > 0 {
					st.sparseToDense++
				}
			}
		}
		switch {
		case keysRebuilt(prevOrd, nextOrd):
			st.windowFolds++
		case &nextOrd.lists.offs[0] != &prevOrd.lists.offs[0]:
			st.listFolds++
		}
		// A fold or a rebuild from the same first key keeps every key's
		// ordinal.
		if &nextOrd.lists.offs[0] != &prevOrd.lists.offs[0] && nextOrd.lo == prevOrd.lo && nextOrd.width > 0 && prevOrd.width > 0 {
			var ls listsStats
			ls.noteRelayout(&prevOrd.lists, &nextOrd.lists)
			st.runToBitmap += ls.runToBitmap
			st.bitmapToRun += ls.bitmapToRun
			st.bitmapTailFolds += ls.bitmapTailFolds
		}
		gens, models = append(gens, pub), append(models, model.clone())
		cur = pub
		begin()
	}
	begin()

	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	insertKey := func(k int64) {
		model.ints[k] = append(model.ints[k], uint32(ints.NumRows()))
		ints.MustAppend(relation.IntVal(k))
		delta.NoteAppend(ints, ints.NumRows()-1)
	}
	insertOrd := func(k int64) {
		model.ord[k] = append(model.ord[k], uint32(ord.NumRows()))
		ord.MustAppend(relation.IntVal(k))
		delta.NoteAppend(ord, ord.NumRows()-1)
		ordMax = max(ordMax, k)
	}

	near := 0
	for len(ops) > 0 {
		switch op := next() % 8; op {
		case 0, 1: // insert into a small key space: posting lists grow
			insertKey(int64(next() % 48))
		case 2: // a burst of keys: the key table's tail grows towards a rebuild
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
		case 5: // a run of rows under one of the first keys: the lists fold
			k := int64(next() % 8)
			for i := 0; i < 24; i++ {
				insertOrd(k)
			}
		case 6: // new keys past the window: the key table grows
			for i := 0; i < 40; i++ {
				insertOrd(ordMax + 1)
			}
		case 7: // publish
			publish()
			st.generations++
		}
	}
	// The writes after the last publish.
	gens, models = append(gens, &chainGen{ints: ints, ord: ord, set: delta.MergeInto(cur.set)}), append(models, model)
	for i, g := range gens {
		at := fmt.Sprintf("generation %d of %d", i, len(gens))
		ih, oh := g.hashes()
		checkChainHash(t, at+": empty-start index", ih, g.ints, models[i].ints)
		checkChainHash(t, at+": clustered index", oh, g.ord, models[i].ord)
		if t.Failed() {
			t.FailNow()
		}
		if i < len(foldedAway) && foldedAway[i] {
			st.readAfterFold++
		}
	}
	return st
}

// checkChainHash holds got to the oracle want and to BuildIntHash over
// rel, the relation of got's generation: every key's list read whole,
// its count, membership, first row and row sets.
func checkChainHash(t *testing.T, at string, got *IntHash, rel *relation.Relation, want map[int64][]uint32) {
	t.Helper()
	built := BuildIntHash(rel, "k")
	if got.NumKeys() != len(want) || built.NumKeys() != len(want) {
		t.Errorf("%s: NumKeys = %d, built %d, want %d", at, got.NumKeys(), built.NumKeys(), len(want))
	}
	for k, rows := range want {
		if r := slices.Collect(got.Rows(k).All()); !reflect.DeepEqual(r, rows) {
			t.Errorf("%s: Rows(%d) = %v want %v", at, k, r, rows)
		}
		if b := slices.Collect(built.Rows(k).All()); !reflect.DeepEqual(b, rows) {
			t.Errorf("%s: built Rows(%d) = %v want %v", at, k, b, rows)
		}
		if first, ok := got.First(k); !ok || first != int(rows[0]) {
			t.Errorf("%s: First(%d) = %d, %v want %d", at, k, first, ok, rows[0])
		}
		o, _ := got.ord(k)
		l := got.Rows(k)
		if got.lists.Count(o) != len(rows) || l.Len() != len(rows) {
			t.Errorf("%s: key %d counts %d, Len %d, want %d", at, k, got.lists.Count(o), l.Len(), len(rows))
		}
		for i, r := range rows {
			if next := i+1 < len(rows) && rows[i+1] == r+1; !got.lists.Contains(o, r) || got.lists.Contains(o, r+1) != next {
				t.Errorf("%s: key %d: Contains is wrong around row %d of %v", at, k, r, rows)
				break
			}
		}
		first, ok := got.lists.First(o)
		checkFirstAndRowSets(t, at+": key", k, l, first, ok, rows, true)
	}
	// Keys a later generation inserted must stay absent here, and so
	// must the neighbors of every present key: in a gap of the dense
	// table, below its first slot, above its last.
	absent := func(k int64) {
		if _, has := want[k]; !has {
			if _, ok := got.First(k); ok || slices.Collect(got.Rows(k).All()) != nil {
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
	args := [8]int{1, 1, 1, 1, 1, 1, 0, 0}
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
// run crossed what the isolation argument is about: the writer rebuilt
// a key table past the fold rule more than once; the first index was
// published in both forms, rebuilt out of each at least twice and from
// each into the other, and retired generations were read after their
// successors had rebuilt it; the second folded its lists alone under an
// unchanged window, and was rebuilt into a wider one, and its folds laid
// runs out as bitmaps and bitmaps as runs, and folded bitmaps with tail
// rows.
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
		if st.runToBitmap == 0 || st.bitmapToRun == 0 || st.bitmapTailFolds == 0 {
			t.Errorf("seed %d did not fold lists across the layout rule both ways: %+v", seed, st)
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
