package index

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"squid/internal/relation"
)

func testRelation(n int) *relation.Relation {
	rel := relation.New("t",
		relation.Col("id", relation.Int),
		relation.Col("tag", relation.String),
	).SetPrimaryKey("id")
	tags := []string{"red", "green", "blue"}
	for i := 0; i < n; i++ {
		rel.MustAppend(relation.IntVal(int64(i%17)), relation.StringVal(tags[i%len(tags)]))
	}
	return rel
}

// TestIndexSetResidentLookup: the set answers with the index it
// adopted, and with nil for one it does not hold — it never builds.
func TestIndexSetResidentLookup(t *testing.T) {
	rel := testRelation(100)
	set := NewIndexSet()
	if set.NumIndexes() != 0 || set.ResidentIntHash(rel, "id") != nil {
		t.Fatalf("fresh set has %d indexes", set.NumIndexes())
	}
	h := BuildIntHash(rel, "id")
	set.AdoptIntHash(rel.Name, "id", h)
	if set.ResidentIntHash(rel, "id") != h || set.NumIndexes() != 1 {
		t.Errorf("the set does not hold the index it adopted (%d indexes)", set.NumIndexes())
	}
	if set.ResidentIntHash(rel, "tag") != nil || set.NumIndexes() != 1 {
		t.Error("a lookup of a column the set lacks built an index")
	}
}

// TestIndexDeltaNoteAppend drives the copy-on-write maintenance path:
// appends noted on a delta land in the merged set's indexes, an index
// the base lacks is built from the writer's relation, and the base
// set's indexes — still serving the retired epoch — never move.
func TestIndexDeltaNoteAppend(t *testing.T) {
	rel := testRelation(50)
	base := NewIndexSet()
	baseInt := BuildIntHash(rel, "id")
	base.AdoptIntHash(rel.Name, "id", baseInt)

	next := rel.CloneForWrite()
	delta := NewIndexDelta(base, nil)
	if delta.ReadIntHash(next, "id") != baseInt {
		t.Error("a read before any append did not serve the base's index")
	}
	next.MustAppend(relation.IntVal(99), relation.StringVal("purple"))
	delta.NoteAppend(next, next.NumRows()-1)
	merged := delta.MergeInto(base)

	ih := merged.ResidentIntHash(next, "id")
	if ih == nil || ih == baseInt {
		t.Fatal("merged set lost the maintained index")
	}
	wantInt := BuildIntHash(next, "id")
	for v := int64(0); v < 100; v++ {
		if got, want := slices.Concat(ih.Rows(v)), slices.Concat(wantInt.Rows(v)); !reflect.DeepEqual(got, want) {
			t.Errorf("after append, Rows(%d) = %v want %v", v, got, want)
		}
	}
	if _, ok := baseInt.First(99); ok || base.NumIndexes() != 1 {
		t.Error("append leaked into the base set")
	}

	other := relation.New("u", relation.Col("k", relation.Int))
	other.MustAppend(relation.IntVal(4))
	built := NewIndexDelta(merged, nil)
	if _, ok := built.ReadIntHash(other, "k").First(4); !ok {
		t.Error("the private build misses the relation's row")
	}
	if next := built.MergeInto(merged); next.NumIndexes() != 2 || merged.NumIndexes() != 1 {
		t.Errorf("the writer's build published %d indexes over the base's %d", next.NumIndexes(), merged.NumIndexes())
	}
}

// TestIndexDeltaDrop: a dropped column's index is absent from the merged
// set (and a writer that needs it again builds it from its own
// relation), while the base set keeps its own.
func TestIndexDeltaDrop(t *testing.T) {
	rel := testRelation(50)
	base := NewIndexSet()
	base.AdoptIntHash(rel.Name, "id", BuildIntHash(rel, "id"))
	base.AdoptIntHash(rel.Name, "other", BuildIntHash(rel, "id"))

	next := rel.CloneForWrite()
	next.UpdateColumn("id")
	delta := NewIndexDelta(base, nil)
	if err := next.Column("id").Set(0, relation.IntVal(5)); err != nil {
		t.Fatal(err)
	}
	delta.Drop("t", "id")
	merged := delta.MergeInto(base)
	if merged.ResidentIntHash(next, "id") != nil {
		t.Error("dropped index survived the merge")
	}
	// A cells-only update touches no other column: its index is
	// inherited, not rebuilt.
	if merged.ResidentIntHash(next, "other") != base.ResidentIntHash(rel, "other") {
		t.Error("dropping id's index lost the untouched index")
	}
	if base.NumIndexes() != 2 {
		t.Errorf("drop touched the base set: NumIndexes=%d want 2", base.NumIndexes())
	}
	if got, want := slices.Concat(delta.ReadIntHash(next, "id").Rows(5)), slices.Concat(BuildIntHash(next, "id").Rows(5)); !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt Rows(5) = %v want %v", got, want)
	}
}

func TestNumericRowsVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 300
	vals := make([]float64, n)
	rows := make([]int, n)
	for i := range vals {
		vals[i] = float64(rng.Intn(50))
		rows[i] = i
	}
	idx := BuildNumericRows(vals, rows)
	if idx.Len() != n {
		t.Fatalf("Len=%d want %d", idx.Len(), n)
	}
	naive := func(lo, hi float64) []int {
		var out []int
		for i, v := range vals {
			if v >= lo && v <= hi {
				out = append(out, rows[i])
			}
		}
		return out
	}
	for trial := 0; trial < 100; trial++ {
		lo := float64(rng.Intn(60) - 5)
		hi := lo + float64(rng.Intn(30))
		got, want := idx.RowsInRange(lo, hi), naive(lo, hi)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("RowsInRange(%v,%v) = %v want %v", lo, hi, got, want)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("RowsInRange(%v,%v) not sorted: %v", lo, hi, got)
		}
		if c := idx.CountRange(lo, hi); c != len(want) {
			t.Fatalf("CountRange(%v,%v) = %d want %d", lo, hi, c, len(want))
		}
	}
	// Inverted bounds.
	if r := idx.RowsInRange(10, 5); r != nil {
		t.Errorf("inverted range returned %v", r)
	}
}

func TestNumericRowsInsert(t *testing.T) {
	if empty := (&NumericRows{}); empty.Min() != 0 || empty.Max() != 0 {
		t.Error("empty index must report 0 extremes")
	}
	var idx *NumericRows
	idx = idx.Insert(5, 0) // nil receiver allocates
	idx = idx.Insert(2, 1)
	idx = idx.Insert(8, 2)
	idx = idx.Insert(5, 3)
	if got := idx.RowsInRange(5, 5); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("RowsInRange(5,5) = %v want [0 3]", got)
	}
	if got := idx.CountRange(2, 8); got != 4 {
		t.Errorf("CountRange(2,8) = %d want 4", got)
	}
}

func TestRowSetIntersectSortedLists(t *testing.T) {
	cases := []struct{ a, b, want []int }{
		{[]int{1, 3, 5, 7}, []int{3, 4, 5, 8}, []int{3, 5}},
		{[]int{1, 2}, []int{3, 4}, nil},
		{nil, []int{1}, nil},
		{[]int{2, 4, 6}, []int{2, 4, 6}, []int{2, 4, 6}},
	}
	for _, c := range cases {
		s := RowSetFromSorted(c.a)
		s.AndWith(RowSetFromSorted(c.b))
		if got := s.ToSorted(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v ∩ %v = %v want %v", c.a, c.b, got, c.want)
		}
	}
}
