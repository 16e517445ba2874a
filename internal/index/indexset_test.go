package index

import (
	"reflect"
	"slices"
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

	next := rel.CloneForWrite(nil)
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
		if got, want := slices.Collect(ih.Rows(v).All()), slices.Collect(wantInt.Rows(v).All()); !reflect.DeepEqual(got, want) {
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
