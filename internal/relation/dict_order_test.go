package relation

import (
	"fmt"
	"math/rand"
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

// TestSortCodesMatchesSortStrings holds rank order to sort.Strings over
// generated dictionaries: before any table exists, over codes interned
// after the table was built (the tail), across the rebuild the fold rule
// triggers, and for a reader that sorts by the table it loaded before
// that rebuild.
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
		}
		for _, w := range words[:400] {
			d.Intern(w)
		}
		check("first use", d.SortCodes)
		built := d.loadRanks()
		if len(built.rank) != 400 {
			t.Fatalf("seed %d: the first sort built a table over %d codes, want 400", seed, len(built.rank))
		}

		// A tail under the fold rule: sorted by the table there is.
		for _, w := range words[400:410] {
			d.Intern(w)
		}
		check("short tail", d.SortCodes)
		if d.loadRanks() != built {
			t.Fatalf("seed %d: 10 values on 400 rebuilt the table", seed)
		}

		// Past the rule: the next sort rebuilds, by a merge that keeps the
		// relative order of the codes the old table ranked.
		for _, w := range words[410:600] {
			d.Intern(w)
		}
		check("across the rebuild", d.SortCodes)
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
		for _, w := range words[600:] {
			d.Intern(w)
		}
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

// TestSortCodesWhileInterning runs sorts against a dictionary a writer
// keeps interning into, past several rebuilds: every sort of the codes
// a reader held when it started agrees with sort.Strings, whichever
// table it loaded. Run under -race.
func TestSortCodesWhileInterning(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := orderWords(rng, 3000)
	d := newDict()
	for _, w := range words[:200] {
		d.Intern(w)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, w := range words[200:] {
			d.Intern(w)
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
			}
		}(int64(r))
	}
	wg.Wait()
	if got := d.ByteSize(); got < int64(d.Len())*48 {
		t.Errorf("ByteSize %d does not count the rank table of %d values", got, d.Len())
	}
}
