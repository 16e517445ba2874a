package index

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"squid/internal/relation"
)

func testDB() *relation.Database {
	db := relation.NewDatabase("test")
	p := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("age", relation.Int),
	).SetPrimaryKey("id")
	p.MustAppend(relation.IntVal(1), relation.StringVal("Tom Cruise"), relation.IntVal(50))
	p.MustAppend(relation.IntVal(2), relation.StringVal("Clint Eastwood"), relation.IntVal(90))
	p.MustAppend(relation.IntVal(3), relation.StringVal("Titanic"), relation.IntVal(40)) // person named like a movie
	db.AddRelation(p)

	m := relation.New("movie",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
	).SetPrimaryKey("id")
	m.MustAppend(relation.IntVal(10), relation.StringVal("Titanic"))
	m.MustAppend(relation.IntVal(11), relation.StringVal("Titanic")) // ambiguous duplicate
	m.MustAppend(relation.IntVal(12), relation.StringVal("Pulp Fiction"))
	db.AddRelation(m)
	return db
}

// lookupSet is the resident set entity lookup reads: a code index of
// every TEXT column of db, as Build and Load make it.
func lookupSet(db *relation.Database) *IndexSet {
	set := NewIndexSet()
	for _, name := range db.RelationNames() {
		for _, col := range db.Relation(name).Columns() {
			if col.Type == relation.String {
				set.AdoptIntHash(name, col.Name, BuildIntHash(db.Relation(name), col.Name))
			}
		}
	}
	return set
}

// TestInvertedLookup looks single values up through the dictionaries
// and the code indexes, the paper's inverted column index: case and
// whitespace do not matter, and a value is found in every column and
// row that holds it.
func TestInvertedLookup(t *testing.T) {
	db := testDB()
	set := lookupSet(db)
	want := []ColumnMatch{{Key: ColumnKey{"person", "name"}, Rows: [][]int{{0}}}}
	for _, v := range []string{"tom cruise", "  TOM   CRUISE "} {
		if got := set.CommonColumns(db, []string{v}); !reflect.DeepEqual(got, want) {
			t.Errorf("lookup of %q = %v, want %v", v, got, want)
		}
	}
	// "Titanic" appears in two relations, three rows in all.
	want = []ColumnMatch{
		{Key: ColumnKey{"movie", "title"}, Rows: [][]int{{0, 1}}},
		{Key: ColumnKey{"person", "name"}, Rows: [][]int{{2}}},
	}
	if got := set.CommonColumns(db, []string{"Titanic"}); !reflect.DeepEqual(got, want) {
		t.Errorf("Titanic matches %v, want %v", got, want)
	}
}

func TestCommonColumns(t *testing.T) {
	db := testDB()
	// Both names only co-occur in person.name.
	matches := lookupSet(db).CommonColumns(db, []string{"Tom Cruise", "Clint Eastwood"})
	if len(matches) != 1 {
		t.Fatalf("matches=%v", matches)
	}
	if matches[0].Key != (ColumnKey{"person", "name"}) {
		t.Errorf("key=%v", matches[0].Key)
	}
	if matches[0].Ambiguous() {
		t.Error("unambiguous names flagged ambiguous")
	}
}

func TestCommonColumnsAmbiguity(t *testing.T) {
	db := testDB()
	matches := lookupSet(db).CommonColumns(db, []string{"Titanic", "Pulp Fiction"})
	if len(matches) != 1 || matches[0].Key != (ColumnKey{"movie", "title"}) {
		t.Fatalf("matches=%v", matches)
	}
	if !matches[0].Ambiguous() {
		t.Error("Titanic must be ambiguous in movie.title")
	}
	if len(matches[0].Rows[0]) != 2 {
		t.Errorf("Titanic rows=%v", matches[0].Rows[0])
	}
}

func TestCommonColumnsNoMatch(t *testing.T) {
	db := testDB()
	set := lookupSet(db)
	if got := set.CommonColumns(db, []string{"Tom Cruise", "Pulp Fiction"}); got != nil {
		t.Errorf("expected no common column, got %v", got)
	}
	if got := set.CommonColumns(db, nil); got != nil {
		t.Error("empty input must give nil")
	}
	if got := set.CommonColumns(db, []string{"unknown value"}); got != nil {
		t.Errorf("unknown value must give nil, got %v", got)
	}
}

func TestIntHash(t *testing.T) {
	db := testDB()
	h := BuildIntHash(db.Relation("person"), "id")
	if r, ok := h.First(2); !ok || r != 1 {
		t.Errorf("First(2)=%d,%v", r, ok)
	}
	if _, ok := h.First(99); ok {
		t.Error("missing key found")
	}
	if h.NumKeys() != 3 {
		t.Errorf("NumKeys=%d", h.NumKeys())
	}
	// A TEXT column is indexed by its dictionary codes.
	names := db.Relation("person").Column("name")
	byCode := BuildIntHash(db.Relation("person"), "name")
	if code, ok := names.Dict().Lookup("Clint Eastwood"); !ok {
		t.Fatal("Clint Eastwood is not in the dictionary")
	} else if r, ok := byCode.First(int64(code)); !ok || r != 1 || byCode.NumKeys() != 3 {
		t.Errorf("First(code of Clint Eastwood)=%d,%v over %d keys", r, ok, byCode.NumKeys())
	}
	// A missing column yields an empty index, not a panic.
	if empty := BuildIntHash(db.Relation("person"), "nickname"); empty.NumKeys() != 0 {
		t.Error("a missing column must yield an empty index")
	}
}

func TestIntHashDuplicates(t *testing.T) {
	r := relation.New("fact", relation.Col("pid", relation.Int))
	r.MustAppend(relation.IntVal(7))
	r.MustAppend(relation.IntVal(7))
	r.MustAppend(relation.IntVal(8))
	h := BuildIntHash(r, "pid")
	if rows := slices.Collect(h.Rows(7).All()); !slices.Equal(rows, []uint32{0, 1}) {
		t.Errorf("Rows(7)=%v", rows)
	}
}

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFirstTouchCopiesNoBaseRun: an insert under a key appends to the
// key's list and copies nothing of its base run, so a thousand
// clone-and-insert cycles on a built index cost no more under a key of
// 10,000 rows than under a key of one.
func TestFirstTouchCopiesNoBaseRun(t *testing.T) {
	rel := relation.New("fact", relation.Col("k", relation.Int))
	for i := 0; i < 10_000; i++ {
		rel.MustAppend(relation.IntVal(0))
	}
	for k := 1; k <= 1000; k++ {
		rel.MustAppend(relation.IntVal(int64(k)))
	}
	built := BuildIntHash(rel, "k")
	cycles := func(key int64) uint64 {
		return allocated(func() {
			for i := 0; i < 1000; i++ {
				built.Clone(new(relation.Gen)).Insert(key, rel.NumRows())
			}
		})
	}
	long, short := cycles(0), cycles(1)
	if long > short {
		t.Errorf("inserting under a 10,000-row key allocated %d bytes over 1,000 cycles, under a 1-row key %d", long, short)
	}
}

// TestBuildIntHashPresizesByRuns: on a derived relation's clustered
// entity ids (every key a run of rows, in key order) the base is a dense
// window that costs what it indexes — one 4-byte posting a row and one
// offset a slot of the key range, nothing spare, under a third of the
// map of per-key lists it replaces — and the build allocates little
// beyond it: an oversized base layer is shared by every epoch and never
// shrinks.
func TestBuildIntHashPresizesByRuns(t *testing.T) {
	const keys, run = 4000, 7
	const rows, width = keys * run, 3*(keys-1) + 1
	rel := relation.New("derived", relation.Col("entity_id", relation.Int), relation.Col("count", relation.Int))
	for k := 0; k < keys; k++ {
		for i := 0; i < run; i++ {
			rel.MustAppend(relation.IntVal(int64(3*k)), relation.IntVal(1))
		}
	}
	var h *IntHash
	built := allocated(func() { h = BuildIntHash(rel, "entity_id") })
	three, four := slices.Collect(h.Rows(3).All()), slices.Collect(h.Rows(4).All())
	if h.NumKeys() != keys || len(three) != run || three[0] != run || four != nil {
		t.Fatalf("index has %d keys, Rows(3) = %v, Rows(4) = %v", h.NumKeys(), three, four)
	}
	if flat := h.lists.flat; h.width != width || len(flat) != rows || cap(flat) != rows || len(h.lists.offs) != width+1 {
		t.Errorf("window %d, %d postings (cap %d), %d offsets: want %d, %d and %d", h.width, len(flat), cap(flat), len(h.lists.offs), width, rows, width+1)
	}
	base, tail := h.residentBytes()
	if want := int64(4*rows + 4*(width+1)); tail != 0 || base != want {
		t.Errorf("base takes %d bytes (tail %d), want %d", base, tail, want)
	}
	var ref map[int64][]int
	mapped := allocated(func() {
		ref = make(map[int64][]int, keys)
		for k := 0; k < keys; k++ {
			ref[int64(3*k)] = make([]int, run)
		}
	})
	if len(ref) != keys || 3*uint64(base) > mapped {
		t.Errorf("base takes %d bytes, a map of %d per-key lists %d: expected under a third", base, keys, mapped)
	}
	// The ordinals and the placement cursor, as large again, are the
	// build's only transients (an eighth allowed for size classes).
	if built > 2*uint64(base)+uint64(base)/8 {
		t.Errorf("BuildIntHash allocated %d bytes for a %d-byte index", built, base)
	}
}
