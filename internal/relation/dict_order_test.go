package relation

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// orderWords draws dictionary values that stress string order: the empty
// string, values that are prefixes of one another, multi-byte runes and
// bytes that are not UTF-8 at all.
func orderWords(rng *rand.Rand, n int) []string {
	pieces := []string{"", "a", "ab", "abc", "b", "B", "z", " ", "é", "ée", "世", "世界", "\xff", "\xc3", "\xc3\xa9x", "~", "0", "00"}
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		var b strings.Builder
		for k := rng.Intn(4); k >= 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		if k := rng.Intn(3); k == 0 {
			fmt.Fprintf(&b, "%d", rng.Intn(1000))
		}
		if w := b.String(); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	// Intern order must not be string order.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if !seen[""] {
		out[rng.Intn(len(out))] = ""
	}
	return out
}

// sortedByString is the oracle: decode, sort.Strings.
func sortedByString(d *Dict, codes []int32) []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = d.Value(c)
	}
	sort.Strings(out)
	return out
}

func decode(d *Dict, codes []int32) []string {
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = d.Value(c)
	}
	return out
}

// drawCodes draws k codes below n with repeats, from a few to most of
// the dictionary, so both the integer sort and the bitmap pass run.
func drawCodes(rng *rand.Rand, n, k int) []int32 {
	codes := make([]int32, k)
	for i := range codes {
		codes[i] = int32(rng.Intn(n))
	}
	return codes
}

// lookupOracle holds Lookup to the interned words, in code order: every
// word interned is found at its code, and each of absent is not found.
func lookupOracle(t *testing.T, when string, d *Dict, interned, absent []string) {
	t.Helper()
	for code, w := range interned {
		if got, ok := d.Lookup(w); !ok || got != int32(code) {
			t.Fatalf("%s: Lookup(%q) = %d, %v; want code %d", when, w, got, ok, code)
		}
	}
	for _, w := range absent {
		if got, ok := d.Lookup(w); ok {
			t.Fatalf("%s: Lookup(%q) found code %d (%q) for a value never interned", when, w, got, d.Value(got))
		}
	}
}

// TestSortCodesMatchesSortStrings holds rank order to sort.Strings and
// Lookup to the intern order over generated dictionaries: before any
// table exists, over codes interned after the table was built (the
// tail), across the rebuild the fold rule triggers, and for a reader
// that sorts by the table it loaded before that rebuild.
func TestSortCodesMatchesSortStrings(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		words := orderWords(rng, 900)
		d := newDict()
		check := func(when string, sortBy func(codes []int32)) {
			t.Helper()
			for _, k := range []int{0, 1, 2, 7, d.Len() / 70, d.Len() / 3, 2 * d.Len()} {
				codes := drawCodes(rng, d.Len(), k)
				want := sortedByString(d, codes)
				sortBy(codes)
				if got := decode(d, codes); !slices.Equal(got, want) {
					t.Fatalf("seed %d, %s, %d codes of %d: rank order\n%q\nsort.Strings\n%q", seed, when, k, d.Len(), got, want)
				}
			}
			n := d.Len()
			if got, ok := d.Lookup(words[n/2]); !ok || got != int32(n/2) {
				t.Fatalf("seed %d, %s: Lookup(%q) = %d, %v; want %d", seed, when, words[n/2], got, ok, n/2)
			}
			lookupOracle(t, fmt.Sprintf("seed %d, %s", seed, when), d, words[:n], words[n:])
		}
		interned := 0
		intern := func(upTo int) {
			for _, w := range words[interned:upTo] {
				if code := d.Intern(w); code != int32(d.Len()-1) {
					t.Fatalf("seed %d: Intern(%q) = %d, want the new code %d", seed, w, code, d.Len()-1)
				}
			}
			// Re-interning finds every value where it is.
			for _, k := range []int{0, upTo / 2, upTo - 1} {
				if code := d.Intern(words[k]); code != int32(k) {
					t.Fatalf("seed %d: re-Intern(%q) = %d, want %d", seed, words[k], code, k)
				}
			}
			interned = upTo
		}
		intern(400)
		check("first use", d.SortCodes)
		built := d.loadRanks()
		if len(built.rank) != 400 {
			t.Fatalf("seed %d: the first sort built a table over %d codes, want 400", seed, len(built.rank))
		}

		// A tail under the fold rule: sorted by the table there is.
		intern(410)
		check("short tail", d.SortCodes)
		if d.loadRanks() != built {
			t.Fatalf("seed %d: 10 values on 400 rebuilt the table", seed)
		}

		// Past the rule: the next sort rebuilds, by a merge that keeps the
		// relative order of the codes the old table ranked.
		intern(600)
		check("across the rebuild", d.SortCodes)
		// Intern never reads the rank table, so the sort rebuilds over
		// all 600 codes.
		rebuilt := d.loadRanks()
		if rebuilt == built || len(rebuilt.rank) != 600 {
			t.Fatalf("seed %d: 200 values on 400 left a table over %d codes", seed, len(rebuilt.rank))
		}
		for a := 1; a < 400; a++ {
			if (built.rank[a-1] < built.rank[a]) != (rebuilt.rank[a-1] < rebuilt.rank[a]) {
				t.Fatalf("seed %d: the rebuild changed the relative order of codes %d and %d", seed, a-1, a)
			}
		}

		// A reader that loaded the old table before the rebuild sorts by
		// it, every newer code in its tail.
		intern(len(words) - 50)
		check("old table", func(codes []int32) { built.sortCodes(d.Values(), codes) })
		check("no table", func(codes []int32) { noRanks.sortCodes(d.Values(), codes) })
	}
}

// TestOutputOrderMatchesSortStrings orders a column's cells the way
// abduction.Result.OutputValues does — the codes of the non-NULL rows,
// SortCodes, one decode — against sort.Strings of the cells: the same
// code in several rows, NULL cells, rows appended after the table was
// built and past a rebuild.
func TestOutputOrderMatchesSortStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	words := orderWords(rng, 300)
	col := NewColumn("name", String)
	appendRows := func(n int, vocab []string) {
		for i := 0; i < n; i++ {
			v := StringVal(vocab[rng.Intn(len(vocab))])
			if rng.Intn(9) == 0 {
				v = Null
			}
			if err := col.Append(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(when string) {
		t.Helper()
		for _, k := range []int{1, 5, 40, col.Len()} {
			rows := rng.Perm(col.Len())[:k]
			var want []string
			var codes []int32
			for _, row := range rows {
				if !col.IsNull(row) {
					want = append(want, col.Str(row))
				}
				if c := col.Code(row); c != NoCode {
					codes = append(codes, c)
				}
			}
			sort.Strings(want)
			col.Dict().SortCodes(codes)
			if got := decode(col.Dict(), codes); !slices.Equal(got, want) {
				t.Fatalf("%s, %d rows: rank order\n%q\nsort.Strings\n%q", when, k, got, want)
			}
		}
	}
	appendRows(500, words[:150])
	check("built")
	appendRows(20, words[150:155])
	check("short tail")
	appendRows(400, words[150:])
	check("past the rebuild")
}

// TestSortCodesWhileInterning runs sorts and lookups against a
// restored dictionary a writer keeps interning into, past several
// rebuilds: every sort of the codes a reader held when it
// started agrees with sort.Strings, every value below the reader's
// length is found at its code, and a word found at all decodes to
// itself, whichever table the reader loaded. Run under -race.
func TestSortCodesWhileInterning(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := orderWords(rng, 3000)
	d := RestoreDict(slices.Clone(words[:200]))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, w := range words[200:] {
			if code := d.Intern(w); code != int32(200+i) {
				t.Errorf("Intern(%q) = %d, want %d", w, code, 200+i)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				n := d.Len() // the reader's epoch: codes below n
				codes := drawCodes(rng, n, 1+rng.Intn(2*n))
				want := sortedByString(d, codes)
				d.SortCodes(codes)
				if got := decode(d, codes); !slices.Equal(got, want) {
					t.Errorf("reader %d, %d codes of %d: rank order differs from sort.Strings", seed, len(codes), n)
					return
				}
				c := rng.Intn(n)
				if got, ok := d.Lookup(words[c]); !ok || got != int32(c) {
					t.Errorf("reader %d: Lookup(%q) = %d, %v; want %d", seed, words[c], got, ok, c)
					return
				}
				w := words[rng.Intn(len(words))]
				if got, ok := d.Lookup(w); ok && d.Value(got) != w {
					t.Errorf("reader %d: Lookup(%q) found %d, which decodes to %q", seed, w, got, d.Value(got))
					return
				}
				// The normal index holds every code below n, whatever
				// the writer added or grew meanwhile.
				if found := d.AppendNormalCodes(nil, AppendNormal(nil, words[c])); !slices.Contains(found, int32(c)) {
					t.Errorf("reader %d: AppendNormalCodes(%q) = %v, which lacks %d", seed, words[c], found, c)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	table := d.loadRanks()
	withTable := d.ByteSize()
	d.ranks.Store(nil)
	without := d.ByteSize()
	d.ranks.Store(table)
	if len(table.rank) == 0 || withTable-without != 8*int64(len(table.rank)) {
		t.Errorf("ByteSize counts %d bytes for a rank table of %d codes, want 8 a code", withTable-without, len(table.rank))
	}
}

// TestLookupWhileInterning runs readers that Lookup every value
// published so far beside a writer interning past two normal-index
// growths and a rank-table rebuild: each value below a reader's length
// is found at its code, whichever normal index the reader loaded, and a
// word past it is found, if at all, at a code that decodes to it. The
// writer waits for a reader pass every 128 interns, so the passes
// interleave with its growths. Run under -race.
func TestLookupWhileInterning(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	words := orderWords(rng, 3000)
	d := RestoreDict(slices.Clone(words[:200]))
	d.BuildNormalIndex()
	d.SortCodes([]int32{0, 1})
	ranks := d.loadRanks()
	var passes atomic.Int64
	var done atomic.Bool
	var wg sync.WaitGroup
	const readers = 2
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for last := false; !last; {
				last = done.Load()
				n := d.Len()
				for c, w := range words[:n] {
					if got, ok := d.Lookup(w); !ok || got != int32(c) {
						t.Errorf("reader %d, %d values: Lookup(%q) = %d, %v; want %d", r, n, w, got, ok, c)
						return
					}
				}
				w := words[min(n, len(words)-1)]
				if got, ok := d.Lookup(w); ok && d.Value(got) != w {
					t.Errorf("reader %d: Lookup(%q) found %d, which decodes to %q", r, w, got, d.Value(got))
					return
				}
				d.SortCodes([]int32{0, int32(n - 1)}) // rebuilds the rank table past the fold rule
				passes.Add(1)
			}
		}(r)
	}
	grown, rebuilt := 0, false
	for i, w := range words[200:] {
		if i%128 == 0 {
			for want := passes.Load() + readers; passes.Load() < want && !t.Failed(); {
				runtime.Gosched()
			}
		}
		ix := d.normals.Load()
		if code := d.Intern(w); code != int32(200+i) {
			t.Errorf("Intern(%q) = %d, want %d", w, code, 200+i)
			break
		}
		if d.normals.Load() != ix {
			grown++
		}
		rebuilt = rebuilt || d.loadRanks() != ranks
	}
	done.Store(true)
	wg.Wait()
	if grown < 2 || !rebuilt {
		t.Errorf("the writer interned past %d normal-index growths and rank-table rebuild %v; want at least two and one", grown, rebuilt)
	}
}

// TestRankTableFoldRule interns into a restored dictionary of 40k
// values, sorting after every intern: the rank table is rebuilt, over
// every code, exactly when the codes past it pass 1/rankFoldDiv of the
// dictionary, and otherwise kept. Meanwhile the normal index holds
// every code through the table it grows into, of twice the slots of
// the one it replaces; BuildNormalIndex then lays the grown table out
// afresh at its first size; and every value stays found at its code —
// by Lookup, and by AppendNormalCodes in another spelling.
func TestRankTableFoldRule(t *testing.T) {
	const n = 40000
	words := make([]string, n+3072)
	for i := range words {
		words[i] = fmt.Sprintf("V %d", (i*7919)%len(words))
	}
	d := RestoreDict(slices.Clone(words[:n]))
	d.SortCodes([]int32{0, 1})
	d.BuildNormalIndex()
	grown, rebuilt := 0, 0
	for i, w := range words[n:] {
		before, table := d.normals.Load(), d.loadRanks()
		if code := d.Intern(w); code != int32(n+i) {
			t.Fatalf("Intern(%q) = %d, want %d", w, code, n+i)
		}
		if d.loadRanks() != table {
			t.Fatalf("%d values: Intern rebuilt the rank table", d.Len())
		}
		due := (d.Len()-len(table.rank))*rankFoldDiv > d.Len()
		d.SortCodes([]int32{0, int32(d.Len() - 1)})
		switch after := d.loadRanks(); {
		case due && len(after.rank) != d.Len():
			t.Fatalf("%d values, %d past the rank table: the sort left a table of %d codes", d.Len(), d.Len()-len(table.rank), len(after.rank))
		case !due && after != table:
			t.Fatalf("%d values, %d past the rank table: the sort rebuilt it within the fold rule", d.Len(), d.Len()-len(table.rank))
		case due:
			rebuilt++
		}
		if ix, vals := d.normalIndex(), d.Values(); ix.codes != len(vals) || ix.codes*5 > len(ix.slots)*4 {
			t.Fatalf("%d values: the normal index holds %d codes in %d slots", len(vals), ix.codes, len(ix.slots))
		} else if ix != before {
			if len(ix.slots) != 2*len(before.slots) {
				t.Fatalf("%d values: the normal index grew from %d slots to %d, want twice", len(vals), len(before.slots), len(ix.slots))
			}
			grown++
		}
	}
	if rebuilt < 2 || grown == 0 {
		t.Fatalf("%d interns rebuilt the rank table %d times and grew the normal index %d times", len(words)-n, rebuilt, grown)
	}
	d.BuildNormalIndex()
	ix := d.normals.Load()
	if len(ix.slots) != len(words)*4/3+8 || ix.codes != len(words) {
		t.Fatalf("BuildNormalIndex laid out %d codes in %d slots, want %d in %d", ix.codes, len(ix.slots), len(words), len(words)*4/3+8)
	}
	if d.BuildNormalIndex(); d.normals.Load() != ix {
		t.Fatal("BuildNormalIndex laid out again a table at its first size")
	}
	lookupOracle(t, "laid out afresh", d, words, []string{"V", "x", "V -1", "v 1"})
	for code, w := range words {
		if got := d.AppendNormalCodes(nil, AppendNormal(nil, " "+strings.ToLower(w))); !slices.Equal(got, []int32{int32(code)}) {
			t.Fatalf("AppendNormalCodes(%q) = %v, want [%d]", " "+strings.ToLower(w), got, code)
		}
	}
}

// TestDictByteSizeMatchesHeap holds ByteSize to what a restored
// dictionary of 40k values costs the heap once its rank table and its
// normal index are built: the values decoded one allocation each, as a
// snapshot load decodes them, their headers, the table and the index.
func TestDictByteSizeMatchesHeap(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's shadow memory is not the dictionary's")
	}
	const n = 40000
	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, 0, 64)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	vals := make([]string, n)
	for i := range vals {
		buf = fmt.Appendf(buf[:0], "%s %s %d", orderWords(rng, 1)[0], strings.Repeat("x", rng.Intn(24)), i)
		vals[i] = string(buf)
	}
	d := RestoreDict(vals)
	d.SortCodes([]int32{0, 1})
	d.BuildNormalIndex()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap := int64(ms.HeapAlloc - before)
	runtime.KeepAlive(d)
	t.Logf("ByteSize %d, heap delta %d", d.ByteSize(), heap)
	if got := d.ByteSize(); math.Abs(float64(got-heap)) > 0.1*float64(heap) {
		t.Errorf("ByteSize %d bytes, the heap grew by %d", got, heap)
	}
}

// FuzzDictOps replays a byte stream as interleaved Intern, Lookup,
// SortCodes, Values and AppendNormalCodes calls against a map,
// sort.Strings and a normalize-scan oracle. Values are drawn from a
// small alphabet, so prefixes, repeats and misses are common; some are
// interned, and all are looked up, in other case and spacing, so
// several codes share a normal form and Lookup must pick the exact
// value among them; and the stream runs long enough to cross the rank
// table's fold rule and the normal index's growth more than once.
func FuzzDictOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 4, 3, 9, 0, 7, 4, 0, 5, 1, 2, 3})
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 600)
	rng.Read(ops)
	f.Add(ops)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		d := newDict()
		var vals []string
		codes := map[string]int32{}
		word := func(b byte) string {
			const alphabet = "ab\xffé"
			var w strings.Builder
			for ; b > 0; b /= 5 {
				w.WriteString(alphabet[:b%5])
			}
			return w.String()
		}
		// respell writes w in another case and spacing, chosen by bits.
		respell := func(w string, bits byte) string {
			if bits&1 != 0 {
				w = strings.ToUpper(w)
			}
			if bits&2 != 0 {
				w = " " + strings.ReplaceAll(w, "b", "\tB  ")
			}
			if bits&4 != 0 {
				w += "\n"
			}
			return w
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, ops[i+1]
			switch op {
			case 0, 1, 5: // Intern a word of arg, arg and its successor joined, or arg respelled
				w := word(arg)
				switch op {
				case 1:
					w += "|" + word(arg+1)
				case 5:
					w = respell(w, arg)
				}
				want, ok := codes[w]
				if !ok {
					want = int32(len(vals))
					vals, codes[w] = append(vals, w), want
				}
				if got := d.Intern(w); got != want {
					t.Fatalf("op %d: Intern(%q) = %d, want %d", i, w, got, want)
				}
			case 2:
				w := respell(word(arg), arg>>3)
				want, known := codes[w]
				if got, ok := d.Lookup(w); ok != known || got != want && known {
					t.Fatalf("op %d: Lookup(%q) = %d, %v; want %d, %v", i, w, got, ok, want, known)
				}
			case 3:
				if len(vals) == 0 {
					continue
				}
				sorted := make([]int32, int(arg)%(2*len(vals))+1)
				for k := range sorted {
					sorted[k] = int32((int(arg) + 7*k) % len(vals))
				}
				want := sortedByString(d, sorted)
				d.SortCodes(sorted)
				if got := decode(d, sorted); !slices.Equal(got, want) {
					t.Fatalf("op %d: SortCodes order %q, want %q", i, got, want)
				}
			case 4:
				if !slices.Equal(d.Values(), vals) {
					t.Fatalf("op %d: Values %q, want %q", i, d.Values(), vals)
				}
			case 6:
				w := respell(word(arg), arg>>3)
				var want []int32
				for c, v := range vals {
					if normalize(v) == normalize(w) {
						want = append(want, int32(c))
					}
				}
				if got := d.AppendNormalCodes(nil, AppendNormal(nil, w)); !slices.Equal(got, want) {
					t.Fatalf("op %d: AppendNormalCodes(%q) = %v, want %v", i, w, got, want)
				}
			}
		}
	})
}

// BenchmarkDictLookup prices Lookup — what Intern pays for a value the
// dictionary holds — on restored dictionaries of 40k and 400k values
// with their normal indexes built: a value restored with the
// dictionary, one of the 1,024 interned since, a miss, and Intern of
// new values, the normal-index growth they trigger included, 4096 at a
// time into a dictionary restored afresh (untimed).
func BenchmarkDictLookup(b *testing.B) {
	for _, n := range []int{40000, 400000} {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("name %d of the dictionary", (i*7919)%n)
		}
		const interned = 1024
		restored := func() *Dict {
			d := RestoreDict(slices.Clone(vals[:n-interned]))
			d.BuildNormalIndex()
			for _, v := range vals[n-interned:] {
				d.Intern(v)
			}
			return d
		}
		d := restored()
		for _, c := range []struct{ name, v string }{{"restored", vals[n/2]}, {"interned", vals[n-1]}, {"miss", "no such name"}} {
			b.Run(fmt.Sprintf("%s/%dk", c.name, n/1000), func(b *testing.B) {
				for b.Loop() {
					d.Lookup(c.v)
				}
			})
		}
		b.Run(fmt.Sprintf("intern/%dk", n/1000), func(b *testing.B) {
			fresh := make([]string, 4096)
			for i := range fresh {
				fresh[i] = fmt.Sprintf("name %d of the dictionary", n+i)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(fresh) == 0 {
					b.StopTimer()
					d = restored()
					b.StartTimer()
				}
				d.Intern(fresh[i%len(fresh)])
			}
		})
	}
}

// BenchmarkDictBulkLoad prices a bulk load: 40k distinct values, each
// interned twice as a column of repeated cells would, into a new
// dictionary, whose normal index grows by doubling as they come.
func BenchmarkDictBulkLoad(b *testing.B) {
	const n = 40000
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("name %d of the dictionary", (i*7919)%n)
	}
	b.ReportAllocs()
	for b.Loop() {
		d := newDict()
		for _, v := range vals {
			d.Intern(v)
			d.Intern(v)
		}
	}
}
