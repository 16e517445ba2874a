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

// normalize is the normal form entity lookup compares values in, by
// its definition (relation.FuzzNormalize holds the dictionaries' one to
// it).
func normalize(s string) string { return strings.Join(strings.Fields(strings.ToLower(s)), " ") }

// TestLookupNormalizesWithoutAllocating pins the read path's shape: a
// lookup of a value that is not in normal form normalizes it on the
// stack, probes the dictionary's normal index comparing the values in
// normal form without building them, and reads views of the code
// index's lists.
func TestLookupNormalizesWithoutAllocating(t *testing.T) {
	db := testDB()
	names := db.Relation("person").Column("name")
	h := lookupSet(db).ResidentIntHash(db.Relation("person"), "name")
	var buf [4]int32
	var form [64]byte
	lookup := func() List {
		codes := names.Dict().AppendNormalCodes(buf[:0], relation.AppendNormal(form[:0], " TOM   cruise\t"))
		if len(codes) != 1 {
			return List{}
		}
		return h.Rows(int64(codes[0]))
	}
	if rows := slices.Collect(lookup().All()); !slices.Equal(rows, []uint32{0}) {
		t.Fatalf("lookup = %v, want the one row", rows)
	}
	if n := testing.AllocsPerRun(100, func() { lookup() }); n != 0 {
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

// reload is what a snapshot load makes of db: every column restored
// from its codes, over a dictionary restored from its values, in code
// order.
func reload(db *relation.Database) *relation.Database {
	out := relation.NewDatabase(db.Name)
	for _, name := range db.RelationNames() {
		r := db.Relation(name)
		var cols []*relation.Column
		for _, c := range r.Columns() {
			d := relation.RestoreDict(slices.Clone(c.Dict().Values()))
			cols = append(cols, relation.RestoreStringColumn(c.Name, slices.Clone(c.RawCodes()), d, slices.Clone(c.RawNulls())))
		}
		out.AddRelation(relation.Restore(name, r.PrimaryKey, r.Foreign, cols, r.NumRows()))
	}
	return out
}

// TestCommonColumnsMatchesMapOracle grows a chain of epochs over a
// generated database the way the αDB's writer does — rows appended to
// write clones of the relations, interned into the dictionaries every
// epoch shares, and noted on an IndexDelta that clones each code index
// on its first write, folds its lists and rebuilds it once its key
// table passes the fold rule — with a lookup of the newest
// epoch after every publish, so the normal indexes grow under lookups
// as interns fill them. Halfway, the chain is reloaded as a
// snapshot load would, and grows on from the restored dictionaries. It
// then holds every generation, the oldest pinned ones included, to a
// scan of its own relations.
//
// A few relations of a few TEXT columns draw from a small vocabulary in
// several spellings of one normal form each — case, spacing, capitals
// whose lower case is shorter (İ, ẞ), a NUL — so values repeat, and
// share a normal form across codes, within a column, across columns and
// across relations.
func TestCommonColumnsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var vocab []string
	for i := 0; i < 3; i++ {
		for _, stem := range []string{"Value %d", "İstanbul %d", "STRAẞE %d", "Nul\x00 Byte %d"} {
			vocab = append(vocab, fmt.Sprintf(stem, i))
		}
	}
	spell := func(w string) string {
		switch rng.Intn(5) {
		case 0:
			return strings.ToUpper(w) + " "
		case 1:
			return strings.ToLower(w)
		case 2:
			return "  " + strings.ReplaceAll(w, " ", "\t ")
		}
		return w
	}
	fresh := 0
	word := func(inserted bool) relation.Value {
		switch {
		case rng.Intn(8) == 0:
			return relation.Null
		case inserted && rng.Intn(2) == 0:
			if rng.Intn(2) == 0 {
				fresh++
			}
			return relation.StringVal(spell(fmt.Sprintf("Fresh %d", fresh)))
		}
		return relation.StringVal(spell(vocab[rng.Intn(len(vocab))]))
	}
	query := func() []string {
		values := make([]string, 1+rng.Intn(4))
		for i := range values {
			switch rng.Intn(10) {
			case 0:
				values[i] = "no such value"
			case 1, 2:
				values[i] = spell(fmt.Sprintf("Fresh %d", rng.Intn(fresh+1)))
			default:
				values[i] = spell(vocab[rng.Intn(len(vocab))])
			}
		}
		return values
	}
	db := relation.NewDatabase("gen")
	for _, r := range []*relation.Relation{
		relation.New("r0", relation.Col("a", relation.String), relation.Col("b", relation.String)),
		relation.New("r1", relation.Col("a", relation.String)),
		relation.New("r2", relation.Col("x", relation.String), relation.Col("y", relation.String), relation.Col("z", relation.String)),
	} {
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
		db  *relation.Database
		set *IndexSet
	}
	rels := func(g generation) []*relation.Relation {
		var out []*relation.Relation
		for _, name := range g.db.RelationNames() {
			out = append(out, g.db.Relation(name))
		}
		return out
	}
	check := func(g int, gen generation, values []string) {
		t.Helper()
		got, want := gen.set.CommonColumns(gen.db, values), commonColumnsByScan(rels(gen), values)
		if len(got) != len(want) {
			t.Fatalf("generation %d: CommonColumns(%q) found %d columns, the scan %d", g, values, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || !reflect.DeepEqual(got[i].Rows, want[i].Rows) {
				t.Fatalf("generation %d: CommonColumns(%q) match %d = %v, the scan %v", g, values, i, got[i], want[i])
			}
		}
	}
	gens := []generation{{db, lookupSet(db)}}
	const length = 240
	keyFolds, listFolds, shared := 0, 0, 0
	for len(gens) < length {
		prev := gens[len(gens)-1]
		if len(gens) == length/2 {
			loaded := reload(prev.db)
			gens = append(gens, generation{loaded, lookupSet(loaded)})
			continue
		}
		delta := NewIndexDelta(prev.set, new(relation.Gen))
		written := map[string]*relation.Relation{}
		names := prev.db.RelationNames()
		for i := rng.Intn(4); i >= 0; i-- {
			name := names[rng.Intn(len(names))]
			r := written[name]
			if r == nil {
				r = prev.db.Relation(name).CloneForWrite(nil)
				written[name] = r
			}
			vals := make([]relation.Value, r.NumCols())
			for c := range vals {
				vals[c] = word(true)
			}
			r.MustAppend(vals...)
			delta.NoteAppend(r, r.NumRows()-1)
		}
		next := generation{prev.db.CloneWith(written), delta.MergeInto(prev.set)}
		for key, h := range next.set.ints {
			switch was := prev.set.ints[key]; {
			case was == h:
				shared++
			case len(h.ords.tail) < len(was.ords.tail):
				keyFolds++
			case h.lists.added < was.lists.added:
				listFolds++
			}
		}
		gens = append(gens, next)
		check(len(gens)-1, next, query())
	}
	t.Logf("%d generations, %d fresh values: %d key-table rebuilds, %d list folds, %d indexes shared with the generation before",
		len(gens), fresh, keyFolds, listFolds, shared)
	if keyFolds == 0 || listFolds == 0 || shared == 0 {
		t.Fatalf("the chain rebuilt the key tables %d times, folded the lists %d times, and shared %d indexes: it proves too little",
			keyFolds, listFolds, shared)
	}
	for trial := 0; trial < 800; trial++ {
		g := rng.Intn(len(gens))
		check(g, gens[g], query())
	}
}
