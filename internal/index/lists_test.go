package index

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"squid/internal/relation"
)

// The epoch-isolation contract of the categorical statistics and of the
// inverted index's posting lists, driven like runCloneChain drives the
// hash indexes: a writer clones the newest generation of a (Jagged,
// Postings) pair, inserts the way the αDB's writer does — a new entity
// row with its codes, a code added in the middle of an existing row's
// list, a code past the posting table — and every retired generation
// must keep answering exactly the lists it was retired with, although
// tail entries and the append area are shared along the chain and grown
// past their lengths in place, and folds replace the base under later
// generations. The oracle is the per-row code lists; the posting lists
// are derived from them. The 8-byte instantiation the inverted index
// uses rides along: wide holds each row as a (column ordinal, row) pair,
// widePosting(row), in the same lists.

// listsGen is one generation of the pair, and of the 8-byte lists.
type listsGen struct {
	vals  Jagged
	posts Postings[uint32]
	wide  Postings[uint64]
}

// widePosting packs row with a column ordinal drawn from it, so the
// pairs of one list sort by column before row, as the inverted index's
// do.
func widePosting(row uint32) uint64 { return posting(row%3, int(row)) }

// listsOracle is one generation's per-row code lists.
type listsOracle [][]int32

func (o listsOracle) clone() listsOracle {
	q := make(listsOracle, len(o))
	for i, codes := range o {
		q[i] = slices.Clone(codes)
	}
	return q
}

// postings derives the rows of each code, ascending, over codes codes.
func (o listsOracle) postings(codes int) [][]uint32 {
	out := make([][]uint32, codes)
	for row, list := range o {
		for _, c := range list {
			if rows := out[c]; len(rows) == 0 || rows[len(rows)-1] != uint32(row) {
				out[c] = append(rows, uint32(row))
			}
		}
	}
	return out
}

// listsStats is what a run exercised.
type listsStats struct {
	generations, valFolds, postFolds, forcedFolds    int
	midInserts, relocations, pastTable, sharedGrowth int
	readAfterFold                                    int
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
	model := make(listsOracle, listsBaseRows)
	offs, flat := []uint32{0}, []int32(nil)
	for row := range model {
		for i := rng.Intn(4); i > 0; i-- {
			model[row] = append(model[row], int32(rng.Intn(listsBaseCodes)))
		}
		flat = append(flat, model[row]...)
		offs = append(offs, uint32(len(flat)))
	}
	poffs, pflat, wflat := []uint32{0}, []uint32(nil), []uint64(nil)
	for _, rows := range model.postings(listsBaseCodes) {
		pflat = append(pflat, rows...)
		poffs = append(poffs, uint32(len(pflat)))
		wflat = append(wflat, wideSorted(rows)...)
	}
	return &listsGen{vals: JaggedOf(offs, flat), posts: PostingsOf(poffs, pflat), wide: PostingsOf(poffs, wflat)}, model
}

// wideSorted returns the 8-byte postings of rows, ascending.
func wideSorted(rows []uint32) []uint64 {
	out := make([]uint64, len(rows))
	for i, r := range rows {
		out[i] = widePosting(r)
	}
	slices.Sort(out)
	return out
}

// runListsChain replays ops and fails t on the first divergence between
// any generation and its oracle.
func runListsChain(t *testing.T, ops []byte) listsStats {
	t.Helper()
	var st listsStats
	live, model := listsBase()
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
	// add gives row the code, as the αDB's writer does: the row's list
	// gains it at the end, the code's posting list gains the row unless
	// the row already held the code.
	add := func(row int, code int32) {
		had := slices.Contains(model[row], code)
		if _, held := live.vals.tailRun(row); !held && row >= live.vals.baseLists() {
			st.relocations++ // moves an appended row from the append area to the tail
		}
		live.vals.Insert(row, len(live.vals.At(row)), code)
		model[row] = append(model[row], code)
		if !had {
			if int(code) >= live.posts.Len() {
				st.pastTable++
			}
			live.posts.AddRow(int(code), uint32(row))
			live.wide.AddRow(int(code), widePosting(uint32(row)))
		}
	}
	publish := func(fold bool) {
		retired, models = append(retired, live), append(models, model.clone())
		prev, g := live, new(relation.Gen)
		if fold {
			live = &listsGen{vals: prev.vals.fold(g), posts: prev.posts.fold(g), wide: prev.wide.fold(g)}
			st.forcedFolds++
		} else {
			live = &listsGen{vals: prev.vals.Clone(g), posts: prev.posts.Clone(g), wide: prev.wide.Clone(g)}
		}
		valFolded := prev.vals.added > 0 && live.vals.added == 0
		postFolded := prev.posts.added > 0 && live.posts.added == 0
		if !fold && valFolded {
			st.valFolds++
		}
		if !fold && postFolded {
			st.postFolds++
		}
		foldedAway = append(foldedAway, valFolded || postFolded)
		st.generations++
	}
	for len(ops) > 0 {
		switch op := next() % 6; op {
		case 0: // a new entity row with zero to three codes
			row := len(model)
			codes := make([]int32, next()%4)
			for i := range codes {
				codes[i] = int32(next() % listsCodes)
			}
			if last := len(retired) - 1; last >= 0 && len(retired[last].vals.appOffs) > 0 && len(live.vals.appOffs) > 0 &&
				&retired[last].vals.appOffs[0] == &live.vals.appOffs[0] && len(live.vals.appOffs) < cap(live.vals.appOffs) {
				st.sharedGrowth++ // grows in place an append area a retired generation reads
			}
			live.vals.Append(codes...)
			model = append(model, codes)
			for i, c := range codes {
				if !slices.Contains(codes[:i], c) {
					if int(c) >= live.posts.Len() {
						st.pastTable++
					}
					live.posts.AddRow(int(c), uint32(row))
					live.wide.AddRow(int(c), widePosting(uint32(row)))
				}
			}
		case 1, 2: // a code in the middle of an existing row's list
			row := (next()<<8 | next()) % len(model)
			add(row, int32(next()%listsCodes))
			st.midInserts++
		case 3: // a burst of them: the tail passes the fold threshold
			for i := 0; i < 24; i++ {
				add((next()<<8|next())%len(model), int32(next()%listsCodes))
				st.midInserts++
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
	if got.vals.Len() != len(want) {
		t.Errorf("%s: Jagged.Len = %d want %d", at, got.vals.Len(), len(want))
		return
	}
	for row, codes := range want {
		if have := got.vals.At(row); !slices.Equal(have, codes) || (len(codes) == 0) != (have == nil) {
			t.Errorf("%s: At(%d) = %v want %v", at, row, have, codes)
			return
		}
	}
	posts := want.postings(listsCodes)
	if got.posts.Len() > listsCodes {
		t.Errorf("%s: Postings.Len = %d past every code drawn", at, got.posts.Len())
	}
	for code := -1; code <= listsCodes; code++ {
		var rows []uint32
		if code >= 0 && code < listsCodes {
			rows = posts[code]
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
		wbase, wtail := got.wide.Rows(code)
		wide := slices.Sorted(slices.Values(append(slices.Clone(wbase), wtail...)))
		if !slices.IsSorted(wbase) || got.wide.Count(code) != len(rows) || !slices.Equal(wide, wideSorted(rows)) {
			t.Errorf("%s: code %d: 8-byte Rows = %v + %v want the set %v", at, code, wbase, wtail, wideSorted(rows))
			return
		}
	}
	if vb, vt := got.vals.ResidentBytes(); vb != 4*int64(len(got.vals.offs)+len(got.vals.flat)) || vt < 4*int64(got.vals.added+got.vals.copied) {
		t.Errorf("%s: Jagged.ResidentBytes = %d, %d with %d codes added and %d copied", at, vb, vt, got.vals.added, got.vals.copied)
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
// run crossed what the isolation argument is about: both layouts folded
// on their threshold more than once and on demand at least once;
// retired generations were read after their successors had folded; rows
// gained codes in the middle of the lists, codes landed past the posting
// table, appended rows moved to the tail, and an append area shared with
// a retired generation grew in place.
func TestListsCloneChain(t *testing.T) {
	seeds := int64(2)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		st := runListsChain(t, listsOps(rand.New(rand.NewSource(seed)), 60))
		t.Logf("seed %d: %+v", seed, st)
		if st.generations != 60 || st.valFolds < 2 || st.postFolds < 2 || st.forcedFolds == 0 || st.readAfterFold < 2 ||
			st.midInserts == 0 || st.pastTable == 0 || st.relocations == 0 || st.sharedGrowth == 0 {
			t.Errorf("seed %d exercised too little: %+v", seed, st)
		}
	}
}

// FuzzListsCloneChain lets the fuzzer pick the interleaving.
func FuzzListsCloneChain(f *testing.F) {
	f.Add(listsOps(rand.New(rand.NewSource(7)), 8))
	f.Add([]byte{0, 3, 1, 2, 3, 1, 0, 9, 5, 0, 2, 0, 1, 17, 4, 5, 3, 1, 0, 1, 33, 4})
	f.Add(listsOps(rand.New(rand.NewSource(1)), 60)) // folds both layouts
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runListsChain(t, ops)
	})
}
