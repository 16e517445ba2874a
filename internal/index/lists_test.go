package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"squid/internal/relation"
)

// The epoch-isolation contract of the posting lists — a categorical
// statistic's and every hash index's Postings — driven like
// runCloneChain drives the hash indexes: a writer clones the newest generation, inserts the way the
// αDB's writer does — a new entity row with its codes, an existing row
// gaining a code (it lands in the tail after larger rows), a code past
// the posting table — and every retired generation must keep answering
// exactly the sets it was retired with, although tail entries are shared
// along the chain and grown past their lengths in place, and folds
// replace the base under later generations. The oracle is the set of
// rows of each code.

// listsGen is one generation of the lists.
type listsGen struct {
	posts Postings
}

// listsOracle is one generation's rows of each code, ascending.
type listsOracle [][]uint32

func (o listsOracle) clone() listsOracle {
	q := make(listsOracle, len(o))
	for code, rows := range o {
		q[code] = slices.Clone(rows)
	}
	return q
}

// add gives row the code and reports whether the row lacked it.
func (o listsOracle) add(code int32, row uint32) bool {
	i, found := slices.BinarySearch(o[code], row)
	if !found {
		o[code] = slices.Insert(o[code], i, row)
	}
	return !found
}

// listsStats is what a run exercised.
type listsStats struct {
	generations, postFolds, forcedFolds, readAfterFold int
	midInserts, pastTable                              int
}

const (
	listsBaseRows  = 96
	listsBaseCodes = 16 // codes at or past this start past the base table
	listsCodes     = 40
)

// listsBase builds the first generation: 96 rows of zero to three codes
// below listsBaseCodes, laid out as the αDB's build lays them out.
func listsBase() (*listsGen, listsOracle) {
	rng := rand.New(rand.NewSource(5))
	model := make(listsOracle, listsCodes)
	for row := range listsBaseRows {
		for i := rng.Intn(4); i > 0; i-- {
			model.add(int32(rng.Intn(listsBaseCodes)), uint32(row))
		}
	}
	offs, flat := []uint32{0}, []uint32(nil)
	for _, rows := range model[:listsBaseCodes] {
		flat = append(flat, rows...)
		offs = append(offs, uint32(len(flat)))
	}
	return &listsGen{posts: PostingsOf(offs, flat)}, model
}

// runListsChain replays ops and fails t on the first divergence between
// any generation and its oracle.
func runListsChain(t *testing.T, ops []byte) listsStats {
	t.Helper()
	var st listsStats
	live, model := listsBase()
	rows := listsBaseRows
	var retired []*listsGen
	var models []listsOracle
	var foldedAway []bool // retired[i]'s successor folded a base it shares
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// add gives row the code, as the αDB's writer does: the code's list
	// gains the row unless the row already held the code.
	add := func(row int, code int32) {
		held := model[code]
		larger := len(held) > 0 && held[len(held)-1] > uint32(row)
		if !model.add(code, uint32(row)) {
			return
		}
		if larger {
			st.midInserts++ // lands in the tail after a larger row
		}
		if int(code) >= live.posts.Len() {
			st.pastTable++
		}
		live.posts.AddRow(int(code), uint32(row))
	}
	publish := func(fold bool) {
		retired, models = append(retired, live), append(models, model.clone())
		prev, g := live, new(relation.Gen)
		if fold {
			live = &listsGen{posts: prev.posts.fold(g)}
			st.forcedFolds++
		} else {
			live = &listsGen{posts: prev.posts.Clone(g)}
		}
		folded := prev.posts.added > 0 && live.posts.added == 0
		if !fold && folded {
			st.postFolds++
		}
		foldedAway = append(foldedAway, folded)
		st.generations++
	}
	for len(ops) > 0 {
		switch op := next() % 6; op {
		case 0: // a new entity row with zero to three codes
			for i := next() % 4; i > 0; i-- {
				add(rows, int32(next()%listsCodes))
			}
			rows++
		case 1, 2: // an existing row gains a code
			add((next()<<8|next())%rows, int32(next()%listsCodes))
		case 3: // a burst of them: the tail passes the fold threshold
			for i := 0; i < 24; i++ {
				add((next()<<8|next())%rows, int32(next()%listsCodes))
			}
		case 4:
			publish(false)
		case 5:
			publish(next()%4 == 0)
		}
	}
	retired, models = append(retired, live), append(models, model)
	for i := range retired {
		checkListsGen(t, fmt.Sprintf("generation %d of %d", i, len(retired)), retired[i], models[i])
		if t.Failed() {
			t.FailNow()
		}
		if i < len(foldedAway) && foldedAway[i] {
			st.readAfterFold++
		}
	}
	return st
}

func checkListsGen(t *testing.T, at string, got *listsGen, want listsOracle) {
	t.Helper()
	if got.posts.Len() > listsCodes {
		t.Errorf("%s: Postings.Len = %d past every code drawn", at, got.posts.Len())
	}
	for code := -1; code <= listsCodes; code++ {
		var rows []uint32
		if code >= 0 && code < listsCodes {
			rows = want[code]
		}
		if code >= got.posts.Len() && len(rows) > 0 {
			t.Errorf("%s: code %d holds rows past Postings.Len %d", at, code, got.posts.Len())
		}
		base, tail := got.posts.Rows(code)
		if !slices.IsSorted(base) {
			t.Errorf("%s: code %d: base run %v not ascending", at, code, base)
		}
		set := slices.Sorted(slices.Values(append(slices.Clone(base), tail...)))
		if got.posts.Count(code) != len(rows) || !slices.Equal(set, rows) {
			t.Errorf("%s: code %d: Rows = %v + %v (Count %d) want the set %v", at, code, base, tail, got.posts.Count(code), rows)
			return
		}
		absent := uint32(0)
		for _, r := range rows {
			if !got.posts.Contains(code, r) {
				t.Errorf("%s: code %d: Contains(%d) = false for a member", at, code, r)
				return
			}
			if r == absent {
				absent++
			}
		}
		if got.posts.Contains(code, absent) {
			t.Errorf("%s: code %d: Contains(%d) = true for a row the set lacks", at, code, absent)
			return
		}
	}
	if pb, pt := got.posts.ResidentBytes(); pb != 4*int64(len(got.posts.offs)+len(got.posts.flat)) || pt < 4*int64(got.posts.added) {
		t.Errorf("%s: Postings.ResidentBytes = %d, %d with %d rows added", at, pb, pt, got.posts.added)
	}
}

// listsOps draws an op stream of exactly generations publishes, each op
// followed by the arguments runListsChain reads for it.
func listsOps(rng *rand.Rand, generations int) []byte {
	var ops []byte
	for published := 0; published < generations; {
		op := byte(rng.Intn(6))
		if op >= 4 {
			if rng.Intn(3) != 0 {
				continue // a handful of writes per generation
			}
			published++
		}
		ops = append(ops, op)
		args := map[byte]int{1: 3, 2: 3, 3: 72, 5: 1}[op]
		if op == 0 {
			codes := byte(rng.Intn(4))
			ops = append(ops, codes)
			args = int(codes)
		}
		for i := 0; i < args; i++ {
			ops = append(ops, byte(rng.Intn(256)))
		}
	}
	return ops
}

// TestListsCloneChain drives 60 generations per seed and insists the
// run crossed what the isolation argument is about: the lists folded on
// their threshold more than once and on demand at least once; retired
// generations were read after their successors had folded; rows landed
// in a tail after larger rows, and codes landed past the posting table.
func TestListsCloneChain(t *testing.T) {
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		st := runListsChain(t, listsOps(rand.New(rand.NewSource(seed)), 60))
		t.Logf("seed %d: %+v", seed, st)
		if st.generations != 60 || st.postFolds < 2 || st.forcedFolds == 0 || st.readAfterFold < 2 ||
			st.midInserts == 0 || st.pastTable == 0 {
			t.Errorf("seed %d exercised too little: %+v", seed, st)
		}
	}
}

// FuzzListsCloneChain lets the fuzzer pick the interleaving.
func FuzzListsCloneChain(f *testing.F) {
	f.Add(listsOps(rand.New(rand.NewSource(7)), 8))
	f.Add([]byte{0, 3, 1, 2, 3, 1, 0, 9, 5, 0, 2, 0, 1, 17, 4, 5, 3, 1, 0, 1, 33, 4})
	f.Add(listsOps(rand.New(rand.NewSource(1)), 60)) // folds
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runListsChain(t, ops)
	})
}

// TestSearchRunMatchesBinarySearch holds Contains' base-run search to
// slices.BinarySearch on duplicate-free ascending runs: uniform over
// their range, skewed (a dense cluster and a long sparse tail, where the
// first guess lands far off), and spread up to the largest row, where
// (x-first)·(n-1) takes all 64 bits.
func TestSearchRunMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 17, 500, 4000} {
		for _, shape := range []string{"uniform", "skewed", "extreme"} {
			checkSearchRun(t, shape, drawRun(rng, n, shape), rng)
		}
	}
}

// drawRun draws n distinct rows of the shape, ascending.
func drawRun(rng *rand.Rand, n int, shape string) []uint32 {
	seen := map[uint32]bool{}
	run := make([]uint32, 0, n)
	for len(run) < n {
		var v uint32
		switch shape {
		case "uniform":
			v = uint32(rng.Int63n(int64(8 * n)))
		case "skewed":
			v = uint32(rng.Int63n(int64(n)))
			if rng.Intn(8) == 0 {
				v = uint32(rng.Int63n(1<<30) * int64(n))
			}
		default:
			v = rng.Uint32()
		}
		if !seen[v] {
			seen[v] = true
			run = append(run, v)
		}
	}
	slices.Sort(run)
	return run
}

func checkSearchRun(t *testing.T, shape string, run []uint32, rng *rand.Rand) {
	t.Helper()
	probes := []uint32{0, math.MaxUint32}
	for i, v := range run {
		probes = append(probes, v, v-1, v+1)
		if i > 0 {
			probes = append(probes, run[i-1]+(v-run[i-1])/2)
		}
	}
	for range 200 {
		probes = append(probes, rng.Uint32())
	}
	for _, x := range probes {
		_, want := slices.BinarySearch(run, x)
		if got := searchRun(run, x); got != want {
			t.Fatalf("%s run of %d: searchRun(%d) = %v, binary search %v", shape, len(run), x, got, want)
		}
	}
}

// BenchmarkSearchRun prices Contains' base-run search against
// slices.BinarySearch on a run of 16k members probed for members in
// random order: uniform over the range (the first guess lands on or
// next to the member) and skewed (it lands far off).
func BenchmarkSearchRun(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []string{"uniform", "skewed"} {
		run := drawRun(rng, 1<<14, shape)
		probes := make([]uint32, 1024)
		for i := range probes {
			probes[i] = run[rng.Intn(len(run))]
		}
		b.Run(shape+"/interpolation", func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				searchRun(run, probes[i%len(probes)])
			}
		})
		b.Run(shape+"/binary", func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				slices.BinarySearch(run, probes[i%len(probes)])
			}
		})
	}
}
