package adb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"squid/internal/relation"
	"squid/internal/trace"
)

// saturationDB is a cast of persons (600 or more) over 420 movies, 400
// of them Comedy and 20 Drama. Persons 0 and 300 are in movies 0..253,
// so their Comedy strength and their degree are 254; every other even
// person below 600 is in one movie; odd persons, and those from 600 on,
// are in none. Comedy then has the 300 even rows below 600: over 600
// persons a dense column, over more than 1,500 a pair list of a full
// first chunk (rows 0..510) and 44 more.
func saturationDB(persons int64) *relation.Database {
	db := relation.NewDatabase("saturation")
	person := relation.New("person", relation.Col("id", relation.Int), relation.Col("name", relation.String)).SetPrimaryKey("id")
	for id := range persons {
		person.MustAppend(relation.IntVal(id), relation.StringVal(fmt.Sprintf("person %d", id)))
	}
	db.AddRelation(person)
	db.MarkEntity("person")
	movie := relation.New("movie", relation.Col("id", relation.Int), relation.Col("title", relation.String), relation.Col("genre", relation.String)).SetPrimaryKey("id")
	for id := range int64(420) {
		genre := "Comedy"
		if id >= 400 {
			genre = "Drama"
		}
		movie.MustAppend(relation.IntVal(id), relation.StringVal(fmt.Sprintf("movie %d", id)), relation.StringVal(genre))
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")
	castinfo := relation.New("castinfo", relation.Col("person_id", relation.Int), relation.Col("movie_id", relation.Int)).
		AddForeignKey("person_id", "person", "id").AddForeignKey("movie_id", "movie", "id")
	for m := range int64(254) {
		castinfo.MustAppend(relation.IntVal(0), relation.IntVal(m))
		castinfo.MustAppend(relation.IntVal(300), relation.IntVal(m))
	}
	for p := int64(2); p < 600; p += 2 {
		if p != 300 {
			castinfo.MustAppend(relation.IntVal(p), relation.IntVal(p%400))
		}
	}
	db.AddRelation(castinfo)
	return db
}

// TestSaturatedStrengthsMatchBuild drives strengths across the byte's
// saturation point by inserts: person 0's Comedy strength goes 254 →
// 255 → 256 → 257 and on to 300, one cast row a publish, and person
// 300's crosses 255 in the publish that adds a new pair beside it —
// which, in a list, splits the full chunk that holds both. It runs over
// Comedy as a pair list and as a dense column. After every publish each
// derived property must answer as a cold Build of the same rows does —
// every strength, ψ and the row set at θ ∈ {1, 254, 255, 256, 257}, the
// normalized-θ sets, the histogram and the view rows — and give the two
// persons the strengths their cast rows make, which a build that clamps
// alike would not.
func TestSaturatedStrengthsMatchBuild(t *testing.T) {
	for _, form := range []struct {
		name    string
		persons int64
		dense   bool
	}{{"list", 1600, false}, {"dense", 600, true}} {
		t.Run(form.name, func(t *testing.T) { checkSaturation(t, form.persons, form.dense) })
	}
}

func checkSaturation(t *testing.T, persons int64, dense bool) {
	a, err := Build(saturationDB(persons), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cast := func(person, movie int64) InsertOp {
		return InsertOp{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(person), relation.IntVal(movie)}}
	}
	batches := [][]InsertOp{
		{cast(0, 254)},
		{cast(301, 0), cast(0, 255), cast(300, 254)},
		{cast(300, 255), cast(0, 256)},
		{cast(300, 256), cast(0, 400)},
	}
	for m := int64(257); m < 300; m++ {
		batches = append(batches, []InsertOp{cast(0, m)})
	}
	comedy := map[int]int{0: 254, 300: 254}
	for i, batch := range batches {
		if err := a.InsertBatch(batch, trace.Span{}); err != nil {
			t.Fatal(err)
		}
		for _, op := range batch {
			if m := op.Vals[1].Int(); m < 400 {
				comedy[int(op.Vals[0].Int())]++
			}
		}
		at := fmt.Sprintf("publish %d", i+1)
		checkAgainstBuild(t, at, a)
		p := a.Entity("person").DerivedByAttr("movie:genre")
		for row, want := range comedy {
			if got := p.StrengthOfCode(row, p.code("Comedy")); got != want {
				t.Fatalf("%s: person %d's Comedy strength is %d, its cast rows make %d", at, row, got, want)
			}
		}
		cs := p.statsOf(p.code("Comedy"))
		if cs.dense != dense {
			t.Fatalf("%s: Comedy is dense %v over %d persons, want %v", at, cs.dense, persons, dense)
		}
		if i == 1 && (len(cs.over) != 2 || !dense && cs.rows.NumChunks() != 3) {
			// The new pair of person 301 split the chunk of a list that
			// holds person 300's, which crossed 255 in the same publish.
			t.Fatalf("%s: Comedy's list is %d chunks with %d saturated pairs, want a split first chunk (a list) and two", at, cs.rows.NumChunks(), len(cs.over))
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	if comedy[0] != 300 || comedy[300] != 257 {
		t.Fatalf("the batches raised the strengths to %v", comedy)
	}
}

// checkAgainstBuild holds every derived property of a to the one a cold
// Build of a's rows derives.
func checkAgainstBuild(t *testing.T, at string, a *AlphaDB) {
	t.Helper()
	fresh, err := Build(a.DB(), a.Config())
	if err != nil {
		t.Fatal(err)
	}
	ep, cold := a.Snapshot(), fresh.Snapshot()
	for _, name := range ep.DB.EntityRelations() {
		info, freshInfo := ep.Entity(name), cold.Entity(name)
		for _, p := range info.Derived {
			fp := freshInfo.DerivedByAttr(p.Attr)
			degree, freshDegree := info.DerivedByAttr(p.Via+":count"), freshInfo.DerivedByAttr(p.Via+":count")
			where := fmt.Sprintf("%s: %s.%s", at, name, p.Attr)
			if got, want := p.DistinctValues(), fp.DistinctValues(); !slices.Equal(got, want) {
				t.Errorf("%s: values %v, the build's %v", where, got, want)
				continue
			}
			for _, v := range fp.DistinctValues() {
				code, freshCode := p.code(v), fp.code(v)
				for row := range info.NumRows {
					if got, want := p.StrengthOfCode(row, code), fp.StrengthOfCode(row, freshCode); got != want {
						t.Errorf("%s: row %d's %q strength %d, the build's %d", where, row, v, got, want)
					}
				}
				for _, theta := range []int{1, 254, 255, 256, 257} {
					if got, want := p.SelectivityOfCode(code, theta), fp.SelectivityOfCode(freshCode, theta); got != want {
						t.Errorf("%s: ψ(%q, %d) = %v, the build's %v", where, v, theta, got, want)
					}
					got := p.EntityRowSetWithStrength(code, theta, trace.Span{}, false).ToSorted()
					want := fp.EntityRowSetWithStrength(freshCode, theta, trace.Span{}, false).ToSorted()
					if !slices.Equal(got, want) {
						t.Errorf("%s: rows of %q at θ %d are %v, the build's %v", where, v, theta, got, want)
					}
				}
				for _, thetaN := range []float64{0.25, 0.5, 0.99, 1} {
					got := p.EntityRowSetWithNormStrength(code, thetaN, degree, trace.Span{}, false).ToSorted()
					want := fp.EntityRowSetWithNormStrength(freshCode, thetaN, freshDegree, trace.Span{}, false).ToSorted()
					if !slices.Equal(got, want) {
						t.Errorf("%s: rows of %q at θn %v are %v, the build's %v", where, v, thetaN, got, want)
					}
				}
				got, want := histogram(p.statsOf(code)), histogram(fp.statsOf(freshCode))
				if i := firstDiff(got, want); i >= 0 {
					t.Errorf("%s: %q's histogram is %d long, the build's %d, and first differs at θ %d", where, v, len(got), len(want), i+1)
				}
			}
			got := ep.CombinedDB().View(p.RelName).Rows(nil)
			want := cold.CombinedDB().View(fp.RelName).Rows(nil)
			if got.NumRows() != want.NumRows() {
				t.Errorf("%s: %d view rows, the build's %d", where, got.NumRows(), want.NumRows())
				continue
			}
			for r := range want.NumRows() {
				if g, w := fmt.Sprint(got.Row(r)), fmt.Sprint(want.Row(r)); g != w {
					t.Errorf("%s: view row %d is %s, the build's %s", where, r, g, w)
					break
				}
			}
		}
	}
}

// histogram lists a pair list's suffix counts.
func histogram(cs *codeStats) []int32 {
	var ge []int32
	for _, n := range cs.ge.All() {
		ge = append(ge, n)
	}
	return ge
}

// firstDiff returns the first index at which a and b differ, -1 when
// they are equal.
func firstDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// pairOps draws an op stream for runPairChain over the given number of
// publishes: single bumps, runs of bumps on one pair that take it past
// 255, and blocks of new pairs that fill and split chunks.
func pairOps(rng *rand.Rand, publishes int) []byte {
	var ops []byte
	for published := 0; published < publishes; {
		op := byte(rng.Intn(4))
		if op == 0 {
			if rng.Intn(4) != 0 {
				continue
			}
			published++
		}
		ops = append(ops, op)
		for range pairOpArgs[op] {
			ops = append(ops, byte(rng.Intn(256)))
		}
	}
	return ops
}

// pairOpArgs is the number of argument bytes each op of runPairChain
// takes.
var pairOpArgs = [4]int{0, 3, 4, 4}

// pairChainStats records what one run of runPairChain exercised: on
// the dense value, new pairs (a byte raised from 0), rows past the
// column's end, and strengths past 255.
type pairChainStats struct {
	generations, splits, saturated, sharedSaturations int
	denseNew, denseGrown, denseSaturated              int
}

// pairEntities is the entity count of runPairChain's property;
// pairDenseRows the length its dense value's column is built at.
const (
	pairEntities  = 1200
	pairDenseRows = 1000
)

// pairModel is runPairChain's oracle: the strength of each (value,
// entity row) pair, 0 for none.
type pairModel [3][pairEntities]int

// runPairChain decodes ops into writer generations over one derived
// property of three values: op 0 publishes, 1 bumps one (entity, value)
// pair, 2 bumps one pair up to 256 times, 3 bumps up to 256 entity rows
// from a start, once each. Value 0 starts as an empty pair list, value 1
// as a dense column of pairDenseRows zero bytes, as a build lays out a
// value before the entities past them were inserted, and value 2, past
// the code table, is added as a list by its first bump. Every retired
// generation must still answer as the oracle did at its publish.
func runPairChain(t *testing.T, ops []byte) pairChainStats {
	t.Helper()
	live := &DerivedProperty{
		numEntities: pairEntities,
		dict:        relation.RestoreDict([]string{"a", "b", "c"}),
		memo:        newRowSetMemo(&SelCache{}),
		codes: relation.ChunkedOf([]codeStats{{}, {
			dense: true, strengths: relation.ChunkedOf(make([]uint8, pairDenseRows)),
		}}),
		dense: 1,
	}
	// model[code][row] is the strength the oracle holds.
	var model pairModel
	var st pairChainStats
	var retired []*DerivedProperty
	var models []*pairModel
	eb := &epochBuilder{gen: new(relation.Gen)}
	p := live.cloneForWrite()
	bump := func(code int32, row int) {
		if cs := p.statsOf(code); cs != nil && cs.dense {
			switch {
			case row >= cs.strengths.Len():
				st.denseGrown++
			case model[code][row] == 0:
				st.denseNew++
			case model[code][row] == saturated-1:
				st.denseSaturated++
			}
		}
		model[code][row]++
		if model[code][row] == saturated {
			st.saturated++
		}
		eb.bump(p, row, code)
	}
	publish := func() {
		for code := range p.codes.Len() {
			cs, prev := p.codes.Ref(code), live.statsOf(int32(code))
			if split(cs) && (prev == nil || !split(prev)) {
				st.splits++
			}
			if prev != nil && len(prev.over) > 0 && !slices.Equal(prev.over, cs.over) {
				st.sharedSaturations++
			}
		}
		retired = append(retired, p)
		m := model
		models = append(models, &m)
		live, eb = p, &epochBuilder{gen: new(relation.Gen)}
		p = live.cloneForWrite()
		st.generations++
	}
	for i := 0; i < len(ops); {
		op := ops[i] % 4
		arg := func(k int) int {
			if i+k < len(ops) {
				return int(ops[i+k])
			}
			return 0
		}
		code, row := int32(arg(1)%3), (arg(2)<<8|arg(3))%pairEntities
		switch op {
		case 0:
			publish()
		case 1:
			bump(code, row)
		case 2:
			for range 1 + arg(4) {
				bump(code, row)
			}
		case 3:
			for r := row; r < min(pairEntities, row+1+arg(4)); r++ {
				bump(code, r)
			}
		}
		i += 1 + pairOpArgs[op]
	}
	publish()
	for g := range retired {
		checkPairModel(t, fmt.Sprintf("generation %d of %d", g, len(retired)), retired[g], models[g])
		if t.Failed() {
			t.FailNow()
		}
	}
	return st
}

// split reports whether a pair list has an interior chunk that is not
// full: one an insert split (the build fills every chunk but the last).
func split(cs *codeStats) bool {
	for ci := range cs.rows.NumChunks() - 1 {
		if len(cs.rows.Chunk(ci)) < 256 {
			return true
		}
	}
	return false
}

// checkPairModel holds a generation of runPairChain's property to its
// oracle: a list's lockstep chunk boundaries and find, a dense column's
// length, the side table, StrengthOfCode for every row, the pairs in
// order (all), the histogram, and the row sets at the strengths around
// the saturation point and the extremes.
func checkPairModel(t *testing.T, at string, p *DerivedProperty, model *pairModel) {
	t.Helper()
	for code := range int32(3) {
		strengths := &model[code]
		var rows []int
		for row, c := range strengths {
			if c > 0 {
				rows = append(rows, row)
			}
		}
		cs := p.statsOf(code)
		if cs == nil {
			if len(rows) > 0 {
				t.Errorf("%s: value %d has no list, the oracle %d pairs", at, code, len(rows))
			}
			continue
		}
		if cs.dense != (code == 1) {
			t.Errorf("%s: value %d is dense %v", at, code, cs.dense)
			return
		}
		if cs.dense && (cs.rows.Len() != 0 || cs.strengths.Len() < pairDenseRows || cs.strengths.Len() > pairEntities) {
			t.Errorf("%s: dense value %d holds %d rows and %d bytes", at, code, cs.rows.Len(), cs.strengths.Len())
			return
		}
		if err := lockstep(cs); !cs.dense && err != nil {
			t.Errorf("%s: value %d: %v", at, code, err)
			return
		}
		k := 0
		for row, c := range cs.all() {
			if k >= len(rows) || int(row) != rows[k] || c != strengths[row] {
				t.Errorf("%s: value %d: pair %d is (%d, %d), the oracle's %d pairs differ", at, code, k, row, c, len(rows))
				return
			}
			k++
		}
		if k != len(rows) || cs.pairs() != len(rows) {
			t.Errorf("%s: value %d: %d pairs listed, %d counted, the oracle's %d", at, code, k, cs.pairs(), len(rows))
			return
		}
		var over []valCount
		for _, row := range rows {
			if strengths[row] >= saturated {
				over = append(over, valCount{entityRow: uint32(row), count: uint32(strengths[row])})
			}
		}
		if !slices.Equal(cs.over, over) {
			t.Errorf("%s: value %d's side table is %v, the oracle's %v", at, code, cs.over, over)
		}
		top := 0
		for row := range pairEntities {
			want := strengths[row]
			top = max(top, want)
			if cs.dense {
				if got := p.StrengthOfCode(row, code); got != want {
					t.Errorf("%s: dense value %d: row %d's strength %d, the oracle's %d", at, code, row, got, want)
					return
				}
				continue
			}
			ci, off, found := cs.find(row, pairEntities)
			wci, woff := cs.rows.Search(func(r uint32) bool { return int(r) >= row })
			if found != (want > 0) || ci != wci || off != woff {
				t.Errorf("%s: value %d: find(%d) = (%d, %d, %v), the search (%d, %d), the oracle's strength %d", at, code, row, ci, off, found, wci, woff, want)
				return
			}
			if got := p.StrengthOfCode(row, code); got != want {
				t.Errorf("%s: value %d: row %d's strength %d, the oracle's %d", at, code, row, got, want)
				return
			}
		}
		if cs.ge.Len() != top {
			t.Errorf("%s: value %d's histogram is %d long, the largest strength %d", at, code, cs.ge.Len(), top)
			return
		}
		for _, theta := range []int{0, 1, 2, 254, 255, 256, 257, top, top + 1} {
			var want []int
			for _, row := range rows {
				if strengths[row] >= theta {
					want = append(want, row)
				}
			}
			if theta >= 1 && theta <= top && int(cs.ge.At(theta-1)) != len(want) {
				t.Errorf("%s: value %d: ge[%d] = %d, the oracle %d", at, code, theta-1, cs.ge.At(theta-1), len(want))
			}
			if got := p.EntityRowSetWithStrength(code, theta, trace.Span{}, false).ToSorted(); !slices.Equal(got, want) && len(got)+len(want) > 0 {
				t.Errorf("%s: value %d at θ %d: rows %v, the oracle's %v", at, code, theta, got, want)
			}
		}
	}
}

// TestDerivedPairsCloneChain drives 40 generations per seed and insists
// each run split a chunk through a clone, saturated strengths, wrote a
// side table a retired generation still read, and on the dense value
// raised bytes from 0 and grew the column past its end, and that some
// run saturated a byte of the dense value.
func TestDerivedPairsCloneChain(t *testing.T) {
	var dense pairChainStats
	for seed := int64(1); seed <= 3; seed++ {
		st := runPairChain(t, pairOps(rand.New(rand.NewSource(seed)), 40))
		t.Logf("seed %d: %+v", seed, st)
		if st.generations != 41 || st.splits == 0 || st.saturated == 0 || st.sharedSaturations == 0 || st.denseNew == 0 || st.denseGrown == 0 {
			t.Errorf("seed %d exercised too little: %+v", seed, st)
		}
		dense.denseSaturated += st.denseSaturated
	}
	if dense.denseSaturated == 0 {
		t.Error("no seed saturated a byte of the dense value")
	}
}

// FuzzDerivedPairsCloneChain lets the fuzzer pick the interleaving, over
// a pair list and a dense column alike.
func FuzzDerivedPairsCloneChain(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(pairOps(rand.New(rand.NewSource(seed)), 40))
	}
	f.Add([]byte{2, 0, 1, 2, 255, 2, 0, 1, 2, 255, 0, 3, 0, 0, 0, 255, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		runPairChain(t, ops)
	})
}
