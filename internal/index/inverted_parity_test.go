package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// lookup of a value that is not in normal form probes the maps with a
// key built on the stack, and reads views of the posting lists.
func TestLookupNormalizesWithoutAllocating(t *testing.T) {
	inv := BuildInvertedParallel(testDB(), 1)
	if got := inv.Lookup(" TOM   cruise\t"); len(got) != 1 || got[0].Row != 0 {
		t.Fatalf("Lookup = %v, want the one posting", got)
	}
	if n := testing.AllocsPerRun(100, func() { inv.lists.Rows(inv.list(" TOM   cruise\t")) }); n != 0 {
		t.Errorf("a lookup allocates %.0f times, want 0", n)
	}
}

// commonColumnsByScan is CommonColumns the slow way, the oracle of
// TestCommonColumnsMatchesMapOracle: every TEXT cell of the relations
// normalized and compared, the rows of each value bucketed by a
// map[ColumnKey][]int.
func commonColumnsByScan(rels []*relation.Relation, values []string) []ColumnMatch {
	if len(values) == 0 {
		return nil
	}
	type colRows map[ColumnKey][]int
	perValue := make([]colRows, len(values))
	for i, v := range values {
		m := make(colRows)
		for _, r := range rels {
			for _, col := range r.Columns() {
				for row := 0; row < r.NumRows(); row++ {
					if !col.IsNull(row) && normalize(col.Str(row)) == normalize(v) {
						k := ColumnKey{r.Name, col.Name}
						m[k] = append(m[k], row)
					}
				}
			}
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

// TestCommonColumnsMatchesMapOracle grows a chain of epochs over a
// generated database — a few relations of a few TEXT columns over a
// small vocabulary in varying case and spacing, so values repeat within
// a column, across columns and across relations — the way the αDB's
// writer does: each generation clones the previous index and relations,
// appends rows and posts their cells, past the folds of both the key
// map and the posting lists. It then holds every generation, the oldest
// pinned ones included, to a scan of its own relations.
func TestCommonColumnsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := make([]string, 12)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("Value %d", i)
	}
	fresh := 0
	word := func(inserted bool) relation.Value {
		switch {
		case rng.Intn(8) == 0:
			return relation.Null
		case inserted && rng.Intn(2) == 0:
			fresh++
			return relation.StringVal(fmt.Sprintf("Fresh %d", fresh))
		case rng.Intn(3) == 0:
			return relation.StringVal(strings.ToUpper(vocab[rng.Intn(len(vocab))]) + " ")
		}
		return relation.StringVal(vocab[rng.Intn(len(vocab))])
	}
	db := relation.NewDatabase("gen")
	rels := []*relation.Relation{
		relation.New("r0", relation.Col("a", relation.String), relation.Col("b", relation.String)),
		relation.New("r1", relation.Col("a", relation.String)),
		relation.New("r2", relation.Col("x", relation.String), relation.Col("y", relation.String), relation.Col("z", relation.String)),
	}
	for _, r := range rels {
		for row := 0; row < 30; row++ {
			vals := make([]relation.Value, r.NumCols())
			for i := range vals {
				vals[i] = word(false)
			}
			r.MustAppend(vals...)
		}
		db.AddRelation(r)
	}
	type generation struct {
		inv  *Inverted
		rels []*relation.Relation
	}
	gens := []generation{{BuildInvertedParallel(db, 2), rels}}
	keyFolds, listFolds := 0, 0
	for len(gens) < 40 {
		prev := gens[len(gens)-1]
		next := generation{prev.inv.Clone(new(relation.Gen)), slices.Clone(prev.rels)}
		if len(prev.inv.keys.tail) > 0 && len(next.inv.keys.tail) == 0 {
			keyFolds++
		}
		if prev.inv.lists.added > 0 && next.inv.lists.added == 0 {
			listFolds++
		}
		for i := rng.Intn(4); i >= 0; i-- {
			j := rng.Intn(len(rels))
			if next.rels[j] == prev.rels[j] {
				next.rels[j] = prev.rels[j].CloneForWrite()
			}
			r := next.rels[j]
			vals := make([]relation.Value, r.NumCols())
			for c := range vals {
				vals[c] = word(true)
			}
			r.MustAppend(vals...)
			row := r.NumRows() - 1
			for _, col := range r.Columns() {
				if !col.IsNull(row) {
					next.inv.Insert(r.Name, col.Name, col.Str(row), row)
				}
			}
		}
		gens = append(gens, next)
	}
	if keyFolds == 0 || listFolds == 0 {
		t.Fatalf("the chain folded the key map %d times and the lists %d times: it proves too little", keyFolds, listFolds)
	}
	for trial := 0; trial < 1500; trial++ {
		values := make([]string, 1+rng.Intn(4))
		for i := range values {
			switch rng.Intn(10) {
			case 0:
				values[i] = "no such value"
			case 1, 2:
				values[i] = fmt.Sprintf(" fresh  %d", 1+rng.Intn(fresh))
			default:
				values[i] = vocab[rng.Intn(len(vocab))]
			}
		}
		g := rng.Intn(len(gens))
		got, want := gens[g].inv.CommonColumns(values), commonColumnsByScan(gens[g].rels, values)
		if len(got) != len(want) {
			t.Fatalf("generation %d: CommonColumns(%q) found %d columns, the scan %d", g, values, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || !reflect.DeepEqual(got[i].Rows, want[i].Rows) {
				t.Fatalf("generation %d: CommonColumns(%q) match %d = %v, the scan %v", g, values, i, got[i], want[i])
			}
		}
	}
}
