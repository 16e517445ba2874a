package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"squid/internal/relation"
)

// TestNormalizeMatchesReference holds the one-pass normalization (and
// its already-normal shortcut) to the expression it replaced, byte for
// byte: generated strings over an alphabet of cases, every kind of
// space, multi-byte runes whose case maps change length, and invalid
// UTF-8.
func TestNormalizeMatchesReference(t *testing.T) {
	reference := func(s string) string {
		return strings.Join(strings.Fields(strings.ToLower(s)), " ")
	}
	alphabet := []string{"a", "b", "z", "A", "Q", " ", " ", "\t", "\n", "\r", "\v", "\f",
		"\u00e9", "\u00c9", "\u0130", "\u023a", "\u00df", "\u00a0", "\u0085", "\u2003", "\u3000", "\u4e16",
		"\xff", "\xc3", "\xe2\x82", "'", "0"}
	rng := rand.New(rand.NewSource(20))
	cases := []string{"", " ", "  ", "a", " a", "a ", "a  b", "ab \tcd", "ab \t", "ab Cd", "ab C", "dan suciu", "Dan Suciu", "a b c"}
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		cases = append(cases, b.String())
	}
	for _, s := range cases {
		want := reference(s)
		if got := normalize(s); got != want {
			t.Fatalf("normalize(%q) = %q, want %q", s, got, want)
		}
		// The shortcut covers ASCII; other strings are always rebuilt.
		ascii := strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) < 0
		if ascii && want == s && normalPrefix(s) != len(s) {
			t.Errorf("normalize(%q) rebuilt a string already in normal form", s)
		}
	}
}

// TestLookupNormalizesWithoutAllocating pins the read path's shape: a
// lookup of a value that is not in normal form probes the map with a key
// built on the stack.
func TestLookupNormalizesWithoutAllocating(t *testing.T) {
	inv := BuildInvertedParallel(testDB(), 1)
	if got := inv.Lookup(" TOM   cruise\t"); len(got) != 1 || got[0].Row != 0 {
		t.Fatalf("Lookup = %v, want the one posting", got)
	}
	if n := testing.AllocsPerRun(100, func() { inv.Lookup(" TOM   cruise\t") }); n != 0 {
		t.Errorf("Lookup allocates %.0f times, want 0", n)
	}
}

// commonColumnsByMap is CommonColumns as it was before the buckets were
// keyed by column ordinal — a map[ColumnKey][]int per value — kept as
// the oracle of TestCommonColumnsMatchesMapOracle.
func commonColumnsByMap(inv *Inverted, values []string, limit RowLimit) []ColumnMatch {
	if len(values) == 0 {
		return nil
	}
	type colRows map[ColumnKey][]int
	perValue := make([]colRows, len(values))
	for i, v := range values {
		m := make(colRows)
		for _, p := range inv.LookupBelow(v, limit) {
			k := ColumnKey{p.Relation, p.Column}
			m[k] = append(m[k], p.Row)
		}
		perValue[i] = m
	}
	var out []ColumnMatch
	for k, rows0 := range perValue[0] {
		match := ColumnMatch{Key: k, Rows: make([][]int, len(values))}
		match.Rows[0] = rows0
		ok := true
		for i := 1; i < len(values); i++ {
			rows, has := perValue[i][k]
			if !has {
				ok = false
				break
			}
			match.Rows[i] = rows
		}
		if ok {
			out = append(out, match)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Relation != out[j].Key.Relation {
			return out[i].Key.Relation < out[j].Key.Relation
		}
		return out[i].Key.Column < out[j].Key.Column
	})
	return out
}

// TestCommonColumnsMatchesMapOracle draws value sets over a generated
// database — a few relations of a few TEXT columns over a small
// vocabulary, so values repeat within a column, across columns and
// across relations, and incremental inserts interleave the posting
// lists — and holds the ordinal-bucketed lookup to the map
// implementation, with and without an epoch row limit.
func TestCommonColumnsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := make([]string, 12)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("Value %d", i)
	}
	db := relation.NewDatabase("gen")
	rels := []*relation.Relation{
		relation.New("r0", relation.Col("a", relation.String), relation.Col("b", relation.String)),
		relation.New("r1", relation.Col("a", relation.String)),
		relation.New("r2", relation.Col("x", relation.String), relation.Col("y", relation.String), relation.Col("z", relation.String)),
	}
	word := func() relation.Value {
		if rng.Intn(8) == 0 {
			return relation.Null
		}
		return relation.StringVal(vocab[rng.Intn(len(vocab))])
	}
	for _, r := range rels {
		for row := 0; row < 30; row++ {
			vals := make([]relation.Value, r.NumCols())
			for i := range vals {
				vals[i] = word()
			}
			r.MustAppend(vals...)
		}
		db.AddRelation(r)
	}
	inv := BuildInvertedParallel(db, 2)
	// Incremental postings, interleaved across relations and columns.
	next := map[string]int{"r0": 30, "r1": 30, "r2": 30}
	for i := 0; i < 60; i++ {
		r := rels[rng.Intn(len(rels))]
		col := r.Columns()[rng.Intn(r.NumCols())]
		inv.Insert(vocab[rng.Intn(len(vocab))], Posting{Relation: r.Name, Column: col.Name, Row: next[r.Name]})
		next[r.Name]++
	}
	limits := []RowLimit{
		nil,
		func(string) int { return 30 },
		func(rel string) int { return map[string]int{"r0": 5, "r1": 40, "r2": 0}[rel] },
	}
	for trial := 0; trial < 2000; trial++ {
		values := make([]string, 1+rng.Intn(4))
		for i := range values {
			values[i] = vocab[rng.Intn(len(vocab))]
			if rng.Intn(10) == 0 {
				values[i] = "no such value"
			}
		}
		limit := limits[trial%len(limits)]
		got, want := inv.CommonColumns(values, limit), commonColumnsByMap(inv, values, limit)
		if len(got) != len(want) {
			t.Fatalf("CommonColumns(%q) found %d columns, the oracle %d", values, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || !reflect.DeepEqual(got[i].Rows, want[i].Rows) {
				t.Fatalf("CommonColumns(%q) match %d = %v, the oracle %v", values, i, got[i], want[i])
			}
		}
	}
}
