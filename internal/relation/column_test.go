package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// The INTEGER layout under copy-on-write: a writer clones the newest
// generation's relation (CloneForWrite, a header copy), appends through
// its own Gen, and every retired generation keeps reading exactly the
// cells it was retired with — although appends land past its length in
// the same offset array, and a relay moves the writer to a new one. The
// driver replays an op stream of value runs against one INTEGER column
// and a plain oracle per generation.

// intChainStats is what a run exercised.
type intChainStats struct {
	generations, relays, sharedAppends int
	widest                             int
}

// intOracle is one generation's cells: vals[i] is meaningful where
// !null[i].
type intOracle struct {
	vals []int64
	null []bool
}

// runIntChain replays ops and fails t on the first divergence between
// any generation and its oracle, on a relay that does not widen the
// column, and on a fourth relay.
func runIntChain(t *testing.T, ops []byte) intChainStats {
	t.Helper()
	var st intChainStats
	g := new(Gen)
	live := New("r", Col("x", Int)).CloneForWrite(g)
	var model intOracle
	var retired []*Relation
	var models []intOracle

	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	word := func(n int) uint64 {
		var b [8]byte
		for i := range n {
			b[i] = next()
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	value := func() int64 {
		switch next() % 6 {
		case 0:
			return int64(next())
		case 1:
			return int64(int16(word(2)))
		case 2:
			return int64(int32(word(4)))
		case 3:
			return int64(word(8))
		case 4:
			return math.MinInt64
		}
		return math.MaxInt64
	}
	push := func(v Value) {
		c := live.Column("x")
		base, shift, held := c.base, c.shift, slices.ContainsFunc(model.null, func(n bool) bool { return !n })
		array, copied := unsafe.SliceData(c.offs), g.Copied
		live.MustAppend(v)
		c = live.Column("x")
		model.vals, model.null = append(model.vals, v.i), append(model.null, v.IsNull())
		if len(retired) > 0 && unsafe.SliceData(c.offs) == array && unsafe.SliceData(retired[len(retired)-1].Column("x").offs) == array {
			st.sharedAppends++ // wrote past a retired generation's length in its array
		}
		if c.base == base && c.shift == shift || !held {
			if c.shift != shift {
				t.Fatalf("a column holding no value widened from %d to %d bytes", 1<<shift, c.Width())
			}
			return
		}
		st.relays++
		if c.shift <= shift {
			t.Fatalf("relay %d kept the width at %d bytes (base %d → %d)", st.relays, c.Width(), base, c.base)
		}
		if st.relays > 3 {
			t.Fatalf("relay %d: a column is relaid at most three times", st.relays)
		}
		if want := int64(len(c.offs) - c.Width()); g.Copied-copied != want {
			t.Fatalf("relay %d charged %d bytes to the writer, want %d", st.relays, g.Copied-copied, want)
		}
		st.widest = max(st.widest, c.Width())
	}

	for len(ops) > 0 {
		switch op := next() % 6; op {
		case 0:
			push(IntVal(value()))
		case 1, 2: // a run, ascending or descending, wrapping at the extremes
			v, n, step := value(), int(next()%32)+1, int64(next())
			if op == 2 {
				step = -step
			}
			for range n {
				push(IntVal(v))
				v += step
			}
		case 3: // one value, repeated
			v := value()
			for range int(next()%32) + 1 {
				push(IntVal(v))
			}
		case 4:
			push(Null)
		case 5: // publish: retire the live generation, clone the next
			retired = append(retired, live)
			models = append(models, intOracle{slices.Clone(model.vals), slices.Clone(model.null)})
			g = new(Gen)
			live = live.CloneForWrite(g)
			st.generations++
		}
	}
	retired, models = append(retired, live), append(models, model)
	for i, r := range retired {
		checkIntColumn(t, fmt.Sprintf("generation %d of %d", i, len(retired)), r.Column("x"), models[i])
		if t.Failed() {
			t.FailNow()
		}
	}
	return st
}

// checkIntColumn holds c to want through Int64, Get and ReadInt64s, and
// its snapshot form (IntLayout) to that of the same cells appended in
// the opposite order, and to what RestoreIntColumn reads back from it.
func checkIntColumn(t *testing.T, at string, c *Column, want intOracle) {
	t.Helper()
	if c.Len() != len(want.vals) {
		t.Errorf("%s: Len = %d want %d", at, c.Len(), len(want.vals))
		return
	}
	block := make([]int64, 7)
	for i, v := range want.vals {
		if c.IsNull(i) != want.null[i] {
			t.Errorf("%s: IsNull(%d) = %v", at, i, c.IsNull(i))
			return
		}
		if want.null[i] {
			if !c.Get(i).IsNull() {
				t.Errorf("%s: Get(%d) = %v want NULL", at, i, c.Get(i))
				return
			}
			continue
		}
		if c.Int64(i) != v || c.Get(i) != IntVal(v) {
			t.Errorf("%s: cell %d reads %d (Get %v) want %d", at, i, c.Int64(i), c.Get(i), v)
			return
		}
	}
	for lo := 0; lo < c.Len(); lo += len(block) {
		b := block[:min(len(block), c.Len()-lo)]
		c.ReadInt64s(b, lo)
		for j, v := range b {
			if !want.null[lo+j] && v != want.vals[lo+j] {
				t.Errorf("%s: ReadInt64s from %d read %d at cell %d want %d", at, lo, v, lo+j, want.vals[lo+j])
				return
			}
		}
	}

	base, width, offs := c.IntLayout()
	rvals, rnull := slices.Clone(want.vals), slices.Clone(want.null)
	slices.Reverse(rvals)
	slices.Reverse(rnull)
	rev := NewColumn("x", Int)
	for i, v := range rvals {
		if rnull[i] {
			rev.Append(Null)
		} else {
			rev.Append(IntVal(v))
		}
	}
	rbase, rwidth, roffs := rev.IntLayout()
	restored := RestoreIntColumn("x", rbase, rwidth, roffs, rev.nulls)
	for i, v := range rvals {
		if !rnull[i] && restored.Int64(i) != v {
			t.Errorf("%s: restored cell %d reads %d want %d", at, i, restored.Int64(i), v)
			return
		}
	}
	if rbase != base || rwidth != width {
		t.Errorf("%s: the snapshot form is base %d width %d, of the cells reversed base %d width %d", at, base, width, rbase, rwidth)
		return
	}
	n := len(offs)
	for i := range len(want.vals) {
		row, rrow := offs[i*width:(i+1)*width], roffs[n-(i+1)*width:n-i*width]
		if !slices.Equal(row, rrow) {
			t.Errorf("%s: the snapshot form's cell %d is %x, of the cells reversed %x", at, i, row, rrow)
			return
		}
	}
}

// intChainOps draws an op stream of the given number of publishes.
func intChainOps(rng *rand.Rand, publishes int) []byte {
	var ops []byte
	for published := 0; published < publishes; {
		op := byte(rng.Intn(6))
		if op == 5 {
			if rng.Intn(3) != 0 {
				continue
			}
			published++
		}
		ops = append(ops, op)
		for range 12 {
			ops = append(ops, byte(rng.Intn(256)))
		}
	}
	return ops
}

// TestIntColumnCloneChain drives 20 generations or more per seed (the
// values read past an op byte can decode as publishes) and insists the
// run relaid the column up to eight bytes and appended into spare room
// of an array a retired generation still read.
func TestIntColumnCloneChain(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		st := runIntChain(t, intChainOps(rand.New(rand.NewSource(seed)), 20))
		t.Logf("seed %d: %+v", seed, st)
		if st.generations < 20 || st.relays == 0 || st.widest != 8 || st.sharedAppends == 0 {
			t.Errorf("seed %d exercised too little: %+v", seed, st)
		}
	}
}

// FuzzIntColumnCloneChain lets the fuzzer pick the values and the
// interleaving.
func FuzzIntColumnCloneChain(f *testing.F) {
	for seed := int64(1); seed <= 2; seed++ {
		f.Add(intChainOps(rand.New(rand.NewSource(seed)), 40))
	}
	// A descending run of 32 from 40,000 by 200, a publish, MinInt64,
	// MaxInt64.
	f.Add([]byte{2, 2, 0x40, 0x9c, 0, 0, 31, 200, 5, 0, 4, 0, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runIntChain(t, ops)
	})
}

// TestIntLayoutWidths pins the width and base the ladder picks for the
// snapshot form, and holds the layout appends reach to no wider: offsets
// are taken modulo 2⁶⁴, so MinInt64 appended first and MaxInt64 after it
// sit one apart, a byte wide, although their range takes eight.
func TestIntLayoutWidths(t *testing.T) {
	for _, tc := range []struct {
		vals  []int64
		width int
		base  int64
	}{
		{[]int64{0, 255}, 1, 0},
		{[]int64{0, 256}, 2, 0},
		{[]int64{0, 31_999}, 2, 0},
		{[]int64{1000, 1100}, 1, 1000 - 77},
		{[]int64{-1, 1}, 1, -1 - 126},
		{[]int64{0, 65_536}, 4, 0},
		{[]int64{1925, 2014}, 1, 1925 - 83},
		{[]int64{0, 1 << 32}, 8, 0},
		{[]int64{math.MinInt64, math.MaxInt64}, 8, 0},
	} {
		c := NewColumn("x", Int)
		for _, v := range tc.vals {
			c.Append(IntVal(v))
		}
		base, width, _ := c.IntLayout()
		if width != tc.width || base != tc.base || c.Width() > width {
			t.Errorf("%v: width %d base %d (laid out at %d), want width %d base %d", tc.vals, width, base, c.Width(), tc.width, tc.base)
		}
		for i, v := range tc.vals {
			if c.Int64(i) != v {
				t.Errorf("%v: cell %d reads %d", tc.vals, i, c.Int64(i))
			}
		}
	}
}

// TestGatherAndMakeIntColumn holds GatherIntColumn to the cells it
// copies at every width, and a MakeIntColumn column to the values
// PutInt64 wrote across its range.
func TestGatherAndMakeIntColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, span := range []int64{200, 60_000, 1 << 31, math.MaxInt64} {
		src := NewColumn("src", Int)
		for range 300 {
			src.Append(IntVal(rng.Int63n(span) - span/2))
		}
		rows := make([]uint32, 500)
		for i := range rows {
			rows[i] = uint32(rng.Intn(src.Len()))
		}
		got := GatherIntColumn("g", src, rows)
		for i, r := range rows {
			if got.Int64(i) != src.Int64(int(r)) {
				t.Fatalf("span %d: gathered cell %d reads %d, row %d of the source %d", span, i, got.Int64(i), r, src.Int64(int(r)))
			}
		}

		lo, hi := -span/2, span/2
		made := MakeIntColumn("m", lo, hi, 3)
		for i, v := range []int64{lo, hi, 0} {
			made.PutInt64(i, v)
		}
		if made.Int64(0) != lo || made.Int64(1) != hi || made.Int64(2) != 0 {
			t.Errorf("span %d: MakeIntColumn over [%d, %d] reads %d %d %d", span, lo, hi, made.Int64(0), made.Int64(1), made.Int64(2))
		}
	}
}
