package index

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"squid/internal/relation"
)

// intColumn builds a one-column relation; a nil cell is NULL.
func intColumn(cells []*int64) *relation.Relation {
	rel := relation.New("t", relation.Col("k", relation.Int))
	for _, c := range cells {
		if c == nil {
			rel.MustAppend(relation.Null)
		} else {
			rel.MustAppend(relation.IntVal(*c))
		}
	}
	return rel
}

func cellsOf(keys ...int64) []*int64 {
	cells := make([]*int64, len(keys))
	for i := range keys {
		cells[i] = &keys[i]
	}
	return cells
}

// checkIntHash compares h with a plain map built from the cells: every
// key's rows (base ++ tail, ascending), NumKeys, First, and the absent
// keys around every present one — below the smallest, above the
// largest, in a gap.
func checkIntHash(t *testing.T, h *IntHash, cells []*int64) {
	t.Helper()
	want := map[int64][]uint32{}
	for row, c := range cells {
		if c != nil {
			want[*c] = append(want[*c], uint32(row))
		}
	}
	if h.NumKeys() != len(want) {
		t.Errorf("NumKeys = %d want %d", h.NumKeys(), len(want))
	}
	for k, rows := range want {
		got := slices.Collect(h.Rows(k).All())
		if !reflect.DeepEqual(got, rows) || !slices.IsSorted(got) {
			t.Errorf("Rows(%d) = %v want %v", k, got, rows)
		}
		if first, ok := h.First(k); !ok || first != int(rows[0]) {
			t.Errorf("First(%d) = %d, %v want %d", k, first, ok, rows[0])
		}
		for _, absent := range []int64{k - 1, k + 1, k - 1000, k + 1000} {
			if _, has := want[absent]; has {
				continue
			}
			if _, ok := h.First(absent); ok || slices.Collect(h.Rows(absent).All()) != nil {
				t.Errorf("absent key %d (beside %d) answers %v", absent, k, slices.Collect(h.Rows(absent).All()))
			}
		}
	}
	for _, absent := range []int64{math.MinInt64, math.MaxInt64, 0} {
		if _, has := want[absent]; !has && slices.Collect(h.Rows(absent).All()) != nil {
			t.Errorf("absent key %d answers %v", absent, slices.Collect(h.Rows(absent).All()))
		}
	}
}

// TestBuildIntHashParity: the two-pass bulk build against a map oracle
// on generated columns, in the form the key range calls for.
func TestBuildIntHashParity(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	null := func(cells []*int64, share float64) []*int64 {
		for i := range cells {
			if rng.Float64() < share {
				cells[i] = nil
			}
		}
		return cells
	}
	var clustered, shuffled, sparse, negative, severalRuns, twoOfMany []int64
	for k := int64(0); k < 700; k++ {
		twoOfMany = append(twoOfMany, k%2*2000) // a range the rows could fill and the keys do not
		for i := rng.Intn(9); i >= 0; i-- {     // entity_id-style runs, some keys skipped
			if k%13 != 0 {
				clustered = append(clustered, 100+k)
			}
		}
		shuffled = append(shuffled, 5000+k%211)
		sparse = append(sparse, k*k*7919-3_000_000)
		negative = append(negative, -k%97-1)
		severalRuns = append(severalRuns, k%50/5) // every key in many separate runs
	}
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cases := []struct {
		name  string
		cells []*int64
		dense bool
	}{
		{"unique ascending", cellsOf(3, 4, 5, 6, 7, 8), true},
		{"clustered runs with gaps", cellsOf(clustered...), true},
		{"shuffled duplicates", cellsOf(shuffled...), true},
		{"several runs a key", cellsOf(severalRuns...), true},
		{"negative keys", cellsOf(negative...), true},
		{"nulls between", null(cellsOf(clustered...), 0.3), true},
		{"sparse keys", cellsOf(sparse...), false},
		{"sparse with nulls and repeats", null(cellsOf(append(sparse, sparse[:100]...)...), 0.2), false},
		{"two far keys", cellsOf(1, 1<<40, 1, 1<<40), false},
		{"two keys, many rows", cellsOf(twoOfMany...), false},
		{"one key", cellsOf(42, 42, 42), true},
		{"one step down", cellsOf(1, 2, 3, 3, 2), true},
		{"empty", nil, false},
		{"all null", make([]*int64, 40), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := BuildIntHash(intColumn(c.cells), "k")
			checkIntHash(t, h, c.cells)
			if dense := h.width > 0; dense != c.dense {
				t.Errorf("dense form = %v want %v (keys %d over a window of %d from %d)", dense, c.dense, h.keys, h.width, h.lo)
			}
			if h.width > 0 && h.ords.base != nil {
				t.Error("both base forms are populated")
			}
			// Exact sizes: each list in the layout the rule picks for
			// its count, one posting a row of a run and two entries and
			// a bitmap's words a bitmap, nothing spare.
			rows := 0
			for _, cell := range c.cells {
				if cell != nil {
					rows++
				}
			}
			checkLayout(t, &h.lists, rows)
		})
	}
}

// checkLayout holds p's base to the layout rule and to exact sizes, and
// to the rows it counts.
func checkLayout(t *testing.T, p *Postings, rows int) {
	t.Helper()
	runRows, bitmaps := 0, 0
	for k := range p.baseLists() {
		n := p.Count(k)
		if p.isBitmap(k) != isBitmap(n, p.span) {
			t.Errorf("list %d of %d rows over %d words: bitmap %v", k, n, p.span, p.isBitmap(k))
		}
		if p.isBitmap(k) {
			bitmaps++
		} else {
			runRows += n
		}
	}
	if p.rows != rows || len(p.flat) != runRows+2*bitmaps || cap(p.flat) != len(p.flat) ||
		len(p.words) != bitmaps*p.span || cap(p.words) != len(p.words) {
		t.Errorf("%d rows (want %d): %d run rows and %d bitmaps of %d words in %d (cap %d) entries and %d (cap %d) words",
			p.rows, rows, runRows, bitmaps, p.span, len(p.flat), cap(p.flat), len(p.words), cap(p.words))
	}
}

// TestIntHashExtremeKeys: keys at both ends of int64 with NULLs between
// them. The key range max − min + 1 wraps to zero there; the form choice
// and the slot arithmetic must not.
func TestIntHashExtremeKeys(t *testing.T) {
	cells := []*int64{nil}
	for _, k := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		cells = append(cells, cellsOf(k)[0], nil, cellsOf(k)[0], nil)
	}
	h := BuildIntHash(intColumn(cells), "k")
	if h.width > 0 {
		t.Fatal("four keys spanning all of int64 took the dense form")
	}
	checkIntHash(t, h, cells)

	// The same through a writer's inserts, and through the rebuild the
	// next writer makes once the key table has passed the fold rule.
	rel := keyRelation("t", nil)
	set := NewIndexSet()
	set.AdoptIntHash(rel.Name, "k", BuildIntHash(rel, "k"))
	var inserted []*int64
	write := func(keys ...int64) *IntHash {
		rel = rel.CloneForWrite(nil)
		d := NewIndexDelta(set, new(relation.Gen))
		for _, k := range keys {
			rel.MustAppend(relation.IntVal(k))
			d.NoteAppend(rel, rel.NumRows()-1)
			inserted = append(inserted, &k)
		}
		set = d.MergeInto(set)
		return set.ResidentIntHash(rel, "k")
	}
	var keys []int64
	for i := int64(0); i < foldMin; i++ {
		keys = append(keys, math.MaxInt64-i, math.MinInt64+i)
	}
	live := write(keys...)
	if !live.keysDue() {
		t.Fatalf("%d inserted keys left the key table short of the fold rule", len(keys))
	}
	folded := write(0)
	if len(folded.ords.tail) != 0 || folded.width > 0 {
		t.Fatalf("the rebuild left a tail of %d keys or chose the dense form", len(folded.ords.tail))
	}
	checkIntHash(t, live, inserted[:len(keys)])
	checkIntHash(t, folded, inserted)

	// A dense run at the very top: the slot of a key far below it must
	// not wrap into the table.
	top := cellsOf(math.MaxInt64-2, math.MaxInt64-1, math.MaxInt64, math.MaxInt64-2)
	d := BuildIntHash(intColumn(top), "k")
	if d.width == 0 {
		t.Fatal("three adjacent keys did not take the dense form")
	}
	checkIntHash(t, d, top)
	bottom := cellsOf(math.MinInt64, math.MinInt64+1, math.MinInt64+1)
	checkIntHash(t, BuildIntHash(intColumn(bottom), "k"), bottom)
}

// TestResidentBytesMatchHeap: what IndexSet.ResidentBytes reports for
// the hash indexes is what building them added to the heap, within 10% —
// the figure is counted from lengths and widths, not sampled.
func TestResidentBytesMatchHeap(t *testing.T) {
	const rows = 60_000
	rng := rand.New(rand.NewSource(5))
	rel := relation.New("fact",
		relation.Col("id", relation.Int),        // unique: dense
		relation.Col("entity_id", relation.Int), // clustered runs: dense
		relation.Col("fk", relation.Int),        // shuffled: dense
		relation.Col("wide", relation.Int),      // sparse
	)
	for i := 0; i < rows; i++ {
		rel.MustAppend(
			relation.IntVal(int64(i)), relation.IntVal(int64(i/6)), relation.IntVal(int64(rng.Intn(rows/4))),
			relation.IntVal(rng.Int63()),
		)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	set := NewIndexSet()
	before := heap()
	for _, c := range rel.Columns() {
		set.AdoptIntHash(rel.Name, c.Name, BuildIntHash(rel, c.Name))
	}
	grew := int64(heap() - before)
	base, tail := set.ResidentBytes()
	t.Logf("building %d hash indexes over %d rows grew the heap by %d bytes; ResidentBytes reports %d", set.NumIndexes(), rows, grew, base+tail)
	if tail != 0 {
		t.Errorf("freshly built indexes report %d tail bytes", tail)
	}
	if diff := math.Abs(float64(base-grew)) / float64(grew); diff > 0.10 {
		t.Errorf("reported %d bytes, the heap grew by %d: off by %.1f%%", base, grew, 100*diff)
	}
	runtime.KeepAlive(set)
	runtime.KeepAlive(rel)
}
