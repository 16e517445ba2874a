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

// lookupOracle holds a search by table t to the interned words, in
// code order: every word interned is found at its code, and each of
// absent is not found.
func lookupOracle(t *testing.T, when string, table *rankTable, vals, interned, absent []string) {
	t.Helper()
	for code, w := range interned {
		if got, ok := table.lookup(vals, w); !ok || got != int32(code) {
			t.Fatalf("%s: Lookup(%q) = %d, %v; want code %d", when, w, got, ok, code)
		}
	}
	for _, w := range absent {
		if got, ok := table.lookup(vals, w); ok {
			t.Fatalf("%s: Lookup(%q) found code %d (%q) for a value never interned", when, w, got, vals[got])
		}
	}
}

// TestSortCodesMatchesSortStrings holds rank order to sort.Strings and
// Lookup to the intern order over generated dictionaries: before any
// table exists, over codes interned after the table was built (the
// tail), across the rebuild the fold rule triggers, and for a reader
// that sorts and searches by the table it loaded before that rebuild.
// Odd seeds seal the dictionary after its first values, so the rest
// are interned by search, not by the bulk map.
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
			lookupOracle(t, fmt.Sprintf("seed %d, %s", seed, when), d.loadRanks(), d.Values(), words[:n], words[n:])
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
		if seed%2 == 1 {
			d.Seal()
		}
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
		// A bulk load interns without a search, so the sort rebuilds over
		// all 600 codes; a sealed Intern searches, and may rebuild on the
		// fold rule partway.
		rebuilt := d.loadRanks()
		if rebuilt == built || seed%2 == 0 && len(rebuilt.rank) != 600 || rebuilt.trails(d.Values()) {
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
		n := d.Len()
		lookupOracle(t, fmt.Sprintf("seed %d, old table", seed), built, d.Values(), words[:n], words[n:])
		lookupOracle(t, fmt.Sprintf("seed %d, no table", seed), noRanks, d.Values(), words[:n], words[n:])
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
// sealed dictionary a writer keeps interning into by search, past
// several rebuilds: every sort of the codes a reader held when it
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

// TestLookupTailIsCapped interns into a sealed dictionary large
// enough that the fold rule's 1/rankFoldDiv share passes rankTailMax:
// the rank table is rebuilt once the codes past it pass rankTailMax, so
// no search scans more, the normal index holds every code through the
// tables it grows into, each of at least twice the slots of the one it
// replaces, and every value stays found at its code — by
// Lookup, and by AppendNormalCodes in another spelling.
func TestLookupTailIsCapped(t *testing.T) {
	const n = 40000
	words := make([]string, n+3*rankTailMax)
	for i := range words {
		words[i] = fmt.Sprintf("V %d", (i*7919)%len(words))
	}
	d := RestoreDict(slices.Clone(words[:n]))
	d.Lookup("")
	d.BuildNormalIndex()
	grown := 0
	for i, w := range words[n:] {
		before := d.normals.Load()
		if code := d.Intern(w); code != int32(n+i) {
			t.Fatalf("Intern(%q) = %d, want %d", w, code, n+i)
		}
		table, vals := d.rankTable()
		if tail := len(vals) - len(table.rank); tail > rankTailMax {
			t.Fatalf("%d values: a search scans %d codes past the rank table, want at most %d", len(vals), tail, rankTailMax)
		}
		if ix, vals := d.normalIndex(), d.Values(); ix.codes != len(vals) || ix.codes*5 > len(ix.slots)*4 {
			t.Fatalf("%d values: the normal index holds %d codes in %d slots", len(vals), ix.codes, len(ix.slots))
		} else if ix != before {
			if len(ix.slots) < 2*len(before.slots) {
				t.Fatalf("%d values: the normal index grew from %d slots to %d, want at least twice", len(vals), len(before.slots), len(ix.slots))
			}
			grown++
		}
	}
	if len(d.loadRanks().rank) < n+2*rankTailMax || grown == 0 {
		t.Fatalf("the table ranks %d codes of %d, and the normal index grew %d times: the cap did not rebuild them",
			len(d.loadRanks().rank), d.Len(), grown)
	}
	lookupOracle(t, "capped", d.loadRanks(), d.Values(), words, []string{"V", "x", "V -1"})
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
	d.Lookup("x")
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
// SortCodes, Values, Seal and AppendNormalCodes calls against a map,
// sort.Strings and a normalize-scan oracle. Values are drawn from a
// small alphabet, so prefixes, repeats and misses are common; some are
// interned in other case and spacing, so several codes share a normal
// form; and the stream runs long enough to cross the rank table's fold
// rule and the normal index's growth more than once.
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
				w := word(arg)
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
				if arg%4 == 0 {
					d.Seal()
				}
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

// BenchmarkDictLookup prices Lookup — what a sealed dictionary's Intern
// pays for a value it holds — on restored dictionaries of 40k and 400k
// values with their rank tables built: a value the table ranks, one
// interned since (the tail scan at its longest under the fold rule), a
// miss, and Intern of new values, the rebuilds they trigger included,
// 4096 at a time into a dictionary restored afresh (untimed).
func BenchmarkDictLookup(b *testing.B) {
	for _, n := range []int{40000, 400000} {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("name %d of the dictionary", (i*7919)%n)
		}
		tail := min(n/rankFoldDiv, rankTailMax)
		restored := func() *Dict {
			d := RestoreDict(slices.Clone(vals[:n-tail]))
			d.Lookup("")
			for _, v := range vals[n-tail:] {
				d.Intern(v)
			}
			return d
		}
		d := restored()
		for _, c := range []struct{ name, v string }{{"ranked", vals[n/2]}, {"tail", vals[n-1]}, {"miss", "no such name"}} {
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

// BenchmarkDictBulkLoad prices what the bulk-load map buys: 40k
// distinct values, each interned twice as a column of repeated cells
// would, into a dictionary in bulk-load mode and into a sealed one,
// which finds every value by search.
func BenchmarkDictBulkLoad(b *testing.B) {
	const n = 40000
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("name %d of the dictionary", (i*7919)%n)
	}
	for _, sealed := range []bool{false, true} {
		b.Run(map[bool]string{false: "map", true: "search"}[sealed], func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				d := newDict()
				if sealed {
					d.Seal()
				}
				for _, v := range vals {
					d.Intern(v)
					d.Intern(v)
				}
			}
		})
	}
}
