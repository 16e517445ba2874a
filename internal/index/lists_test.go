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
// replace the base under later generations. The base's lists sit on
// both sides of the layout rule (isBitmap), and the ops cross it both
// ways: a burst into one value folds a run into a bitmap and grows a
// bitmap by its tail, and a run of new entity rows widens the universe
// until a bitmap folds back into a run. The oracle is the set of rows
// of each code.

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
	// Lists a fold laid out in the other layout, and bitmaps it folded
	// with rows of their tail.
	runToBitmap, bitmapToRun, bitmapTailFolds int
}

const (
	listsBaseRows  = 320
	listsBaseCodes = 16 // codes at or past this start past the base table
	listsCodes     = 40
)

// listsBase builds the first generation: 320 rows, half of which hold
// code 0 and a third code 1, and half one of the codes 2 to 15 — about
// 11 rows each, around the 10 past which a list of a 320-row universe is
// a bitmap — laid out as the αDB's build lays them out.
func listsBase() (*listsGen, listsOracle) {
	rng := rand.New(rand.NewSource(5))
	model := make(listsOracle, listsCodes)
	for row := range listsBaseRows {
		if rng.Intn(2) == 0 {
			model.add(0, uint32(row))
		}
		if rng.Intn(3) == 0 {
			model.add(1, uint32(row))
		}
		if rng.Intn(2) == 0 {
			model.add(int32(2+rng.Intn(listsBaseCodes-2)), uint32(row))
		}
	}
	return &listsGen{posts: postingsOf(model[:listsBaseCodes], listsBaseRows)}, model
}

// postingsOf lays out lists over rows in [0, universe) as a build does.
func postingsOf(lists [][]uint32, universe int) Postings {
	sizes := make([]uint32, len(lists)+1)
	for k, rows := range lists {
		sizes[k+1] = uint32(len(rows))
	}
	b := NewPostingsBuilder(sizes, universe)
	for k, rows := range lists {
		for _, r := range rows {
			b.Add(k, r)
		}
	}
	return b.Postings()
}

// noteRelayout counts, over a fold from prev to next, the lists laid out
// the other way and the bitmaps folded with tail rows.
func (st *listsStats) noteRelayout(prev, next *Postings) {
	for k := range min(prev.baseLists(), next.baseLists()) {
		was, is := prev.isBitmap(k), next.isBitmap(k)
		_, tail := prev.tailRun(k)
		switch {
		case !was && is:
			st.runToBitmap++
		case was && !is:
			st.bitmapToRun++
		case was && tail:
			st.bitmapTailFolds++
		}
	}
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
		if fold || folded {
			st.noteRelayout(&prev.posts, &live.posts)
		}
		foldedAway = append(foldedAway, folded)
		st.generations++
	}
	for len(ops) > 0 {
		switch op := next() % 7; op {
		case 0: // a new entity row with zero to three codes
			for i := next() % 4; i > 0; i-- {
				add(rows, int32(next()%listsCodes))
			}
			rows++
		case 1, 2: // an existing row gains a code
			add((next()<<8|next())%rows, int32(next()%listsCodes))
		case 3: // a burst of them into one code: the tail passes the fold threshold
			code := int32(next() % listsCodes)
			for i := 0; i < 24; i++ {
				add((next()<<8|next())%rows, code)
			}
		case 4:
			publish(false)
		case 5:
			publish(next()%4 == 0)
		case 6: // a word of new entity rows holding one code: the universe widens
			code := int32(next() % listsCodes)
			for range 64 {
				add(rows, code)
				rows++
			}
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
		l := got.posts.Rows(code)
		if base := slices.Collect(List{words: l.words, run: l.run}.All()); !slices.IsSorted(base) || len(base) != l.n {
			t.Errorf("%s: code %d: base %v not ascending, or not its count %d", at, code, base, l.n)
		}
		if l.words != nil && !got.posts.isBitmap(code) || len(l.words) != got.posts.span && l.words != nil {
			t.Errorf("%s: code %d: a bitmap of %d words, span %d", at, code, len(l.words), got.posts.span)
		}
		set := slices.Sorted(l.All())
		if got.posts.Count(code) != len(rows) || l.Len() != len(rows) || !slices.Equal(set, rows) {
			t.Errorf("%s: code %d: Rows = %v (Count %d, Len %d) want the set %v", at, code, set, got.posts.Count(code), l.Len(), rows)
			return
		}
		first, ok := got.posts.First(code)
		checkFirstAndRowSets(t, at+": code", int64(code), l, first, ok, rows, l.n == len(rows))
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
	p := &got.posts
	if pb, pt := p.ResidentBytes(); pb != 4*int64(len(p.offs)+len(p.flat))+8*int64(len(p.bitmap)+len(p.words)) || pt < 4*int64(p.added) {
		t.Errorf("%s: Postings.ResidentBytes = %d, %d with %d rows added", at, pb, pt, got.posts.added)
	}
}

// checkFirstAndRowSets holds list l's first row (Postings.First) and the
// row sets AddList builds from it, sparse and dense, to rows, its
// members ascending. The first row is the smallest member when folded
// (the list has no tail), and a member in any case.
func checkFirstAndRowSets(t *testing.T, at string, id int64, l List, first uint32, ok bool, rows []uint32, folded bool) {
	if ok != (len(rows) > 0) || ok && !slices.Contains(rows, first) || ok && folded && first != rows[0] {
		t.Errorf("%s %d: First = %d, %v for %v", at, id, first, ok, rows)
	}
	universe := 1
	if len(rows) > 0 {
		universe = int(rows[len(rows)-1]) + 1
	}
	for _, s := range []*RowSet{NewRowSet(universe, len(rows)), NewRowSet(universe, universe)} {
		s.AddList(l)
		got := s.ToSorted()
		if len(got) != len(rows) {
			t.Errorf("%s %d: a %s row set of the list holds %v, want %v", at, id, s.Form(), got, rows)
			return
		}
		for i, r := range got {
			if uint32(r) != rows[i] {
				t.Errorf("%s %d: a %s row set of the list holds %v, want %v", at, id, s.Form(), got, rows)
				return
			}
		}
	}
}

// listsOps draws an op stream of exactly generations publishes, each op
// followed by the arguments runListsChain reads for it.
func listsOps(rng *rand.Rand, generations int) []byte {
	var ops []byte
	for published := 0; published < generations; {
		op := byte(rng.Intn(7))
		if op == 4 || op == 5 {
			if rng.Intn(3) != 0 {
				continue // a handful of writes per generation
			}
			published++
		}
		ops = append(ops, op)
		args := map[byte]int{1: 3, 2: 3, 3: 49, 5: 1, 6: 1}[op]
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
// in a tail after larger rows, and codes landed past the posting table;
// folds laid runs out as bitmaps and bitmaps as runs, and folded
// bitmaps with tail rows.
func TestListsCloneChain(t *testing.T) {
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		st := runListsChain(t, listsOps(rand.New(rand.NewSource(seed)), 60))
		t.Logf("seed %d: %+v", seed, st)
		if st.generations != 60 || st.postFolds < 2 || st.forcedFolds == 0 || st.readAfterFold < 2 ||
			st.midInserts == 0 || st.pastTable == 0 || st.runToBitmap == 0 || st.bitmapToRun == 0 || st.bitmapTailFolds == 0 {
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

// TestLayoutRuleEdge pins the layout rule at its edge over a universe of
// N = 640 rows (a bitmap of 10 words, 80 bytes): a list of N/32 = 20
// rows is a run, one of 21 a bitmap — built, and through a fold that
// brings a run to 21 rows, or widens the universe by a word under a
// bitmap of 21.
func TestLayoutRuleEdge(t *testing.T) {
	const n = 640
	keys := make([]int64, n)
	for row := range keys {
		switch {
		case row%2 == 0 && row < 40:
			keys[row] = -1 // 20 rows
		case row%2 == 1 && row < 43:
			keys[row] = -2 // 21 rows
		default:
			keys[row] = int64(row)
		}
	}
	h := BuildIntHash(keyRelation("edge", keys), "k")
	edge, _ := h.ord(-1)
	past, _ := h.ord(-2)
	if h.lists.isBitmap(edge) || !h.lists.isBitmap(past) || h.Rows(-1).Len() != 20 || h.Rows(-2).Len() != 21 {
		t.Fatalf("built: %d rows a bitmap %v, %d rows a bitmap %v", h.Rows(-1).Len(), h.lists.isBitmap(edge), h.Rows(-2).Len(), h.lists.isBitmap(past))
	}
	checkLayout(t, &h.lists, n)

	lists := make([][]uint32, 2)
	for row := range uint32(41) {
		lists[row%2] = append(lists[row%2], row) // 21 even rows, 20 odd
	}
	p := postingsOf(lists, n)
	if !p.isBitmap(0) || p.isBitmap(1) {
		t.Fatalf("21 rows a bitmap %v, 20 a bitmap %v", p.isBitmap(0), p.isBitmap(1))
	}
	p.AddRow(1, 41)
	q := p.fold(new(relation.Gen))
	if !q.isBitmap(0) || !q.isBitmap(1) {
		t.Fatalf("folded at 21 rows each: bitmaps %v, %v", q.isBitmap(0), q.isBitmap(1))
	}
	for row := uint32(n); row < n+64; row++ {
		q.AddRow(2, row) // a third list widens the universe to 704 rows
	}
	r := q.fold(new(relation.Gen))
	if r.span != 11 || r.isBitmap(0) || r.isBitmap(1) || !r.isBitmap(2) {
		t.Fatalf("folded over %d words: bitmaps %v, %v, %v", r.span, r.isBitmap(0), r.isBitmap(1), r.isBitmap(2))
	}
	checkLayout(t, &r, 21+21+64)
	for k, want := range [][]uint32{lists[0], append(lists[1], 41)} {
		first, ok := r.First(k)
		checkFirstAndRowSets(t, "list", int64(k), r.Rows(k), first, ok, want, true)
		if got := slices.Collect(r.Rows(k).All()); !slices.Equal(got, want) {
			t.Errorf("list %d holds %v, want %v", k, got, want)
		}
	}
}
