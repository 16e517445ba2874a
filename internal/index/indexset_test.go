package index

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
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

func TestIndexSetLazyBuildAndReuse(t *testing.T) {
	rel := testRelation(100)
	set := NewIndexSet()
	if set.NumIndexes() != 0 {
		t.Fatalf("fresh set has %d indexes", set.NumIndexes())
	}
	h1 := set.IntHash(rel, "id")
	h2 := set.IntHash(rel, "id")
	if h1 != h2 {
		t.Error("IntHash not reused")
	}
	if set.NumIndexes() != 1 {
		t.Errorf("NumIndexes=%d want 1", set.NumIndexes())
	}
	want := BuildIntHash(rel, "id")
	for v := int64(0); v < 20; v++ {
		if !reflect.DeepEqual(h1.Rows(v), want.Rows(v)) {
			t.Errorf("IntHash.Rows(%d) = %v want %v", v, h1.Rows(v), want.Rows(v))
		}
	}
	s1 := set.StrHash(rel, "tag")
	if s2 := set.StrHash(rel, "tag"); s1 != s2 {
		t.Error("StrHash not reused")
	}
	if !reflect.DeepEqual(s1.Rows("RED"), BuildStrHash(rel, "tag").Rows("red")) {
		t.Error("StrHash normalization lookup broken")
	}
}

// TestIndexDeltaNoteAppend drives the copy-on-write maintenance path:
// appends noted on a delta land in the merged view's indexes, and the
// base view's shards — still serving the retired epoch — never move.
func TestIndexDeltaNoteAppend(t *testing.T) {
	rel := testRelation(50)
	base := NewIndexSet()
	baseInt := base.IntHash(rel, "id")
	baseStr := base.StrHash(rel, "tag")
	baseNum := base.Numeric(rel, "id")

	next := rel.CloneForWrite()
	delta := NewIndexDelta(base, nil)
	next.MustAppend(relation.IntVal(99), relation.StringVal("purple"))
	delta.NoteAppend(next, next.NumRows()-1)
	merged := delta.MergeInto(base)

	ih, _, nh := merged.peek(ColumnKey{"t", "id"})
	_, sh, _ := merged.peek(ColumnKey{"t", "tag"})
	if ih == nil || sh == nil || nh == nil {
		t.Fatal("merged view lost a maintained index")
	}
	wantInt := BuildIntHash(next, "id")
	for v := int64(0); v < 100; v++ {
		if !reflect.DeepEqual(ih.Rows(v), wantInt.Rows(v)) {
			t.Errorf("after append, Rows(%d) = %v want %v", v, ih.Rows(v), wantInt.Rows(v))
		}
	}
	if got, want := sh.Rows("purple"), BuildStrHash(next, "tag").Rows("purple"); !reflect.DeepEqual(got, want) {
		t.Errorf("after append, Rows(purple) = %v want %v", got, want)
	}
	if nh.Len() != 51 || nh.Max() != 99 || nh.Min() != 0 {
		t.Errorf("numeric index after append: len=%d min=%v max=%v", nh.Len(), nh.Min(), nh.Max())
	}
	if len(baseInt.Rows(99)) != 0 || len(baseStr.Rows("purple")) != 0 || baseNum.Len() != 50 {
		t.Error("append leaked into the base view's shards")
	}
}

// TestIndexDeltaDrop: a dropped column's indexes are absent from the
// merged view (and rebuild lazily from the writer's relation), while
// the base view keeps its own.
func TestIndexDeltaDrop(t *testing.T) {
	rel := testRelation(50)
	base := NewIndexSet()
	base.IntHash(rel, "id")
	base.StrHash(rel, "tag")

	next := rel.CloneForWrite()
	next.UpdateColumn("id")
	delta := NewIndexDelta(base, nil)
	if err := next.Column("id").Set(0, relation.IntVal(5)); err != nil {
		t.Fatal(err)
	}
	delta.Drop("t", "id")
	merged := delta.MergeInto(base)
	if ih, _, _ := merged.peek(ColumnKey{"t", "id"}); ih != nil {
		t.Error("dropped index survived the merge")
	}
	// A cells-only update touches no other column: its index is
	// inherited, not rebuilt.
	if _, sh, _ := merged.peek(ColumnKey{"t", "tag"}); sh == nil {
		t.Error("dropping id's index lost the untouched tag index")
	}
	if base.NumIndexes() != 2 {
		t.Errorf("drop touched the base view: NumIndexes=%d want 2", base.NumIndexes())
	}
	if got, want := merged.IntHash(next, "id").Rows(5), BuildIntHash(next, "id").Rows(5); !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt Rows(5) = %v want %v", got, want)
	}
}

// TestNumericRowsSkipsNulls: NULL cells are not indexed, and Min/Max
// report the extremes of what is.
func TestNumericRowsSkipsNulls(t *testing.T) {
	r := relation.New("t", relation.Col("x", relation.Int))
	r.MustAppend(relation.IntVal(7))
	r.MustAppend(relation.Null)
	r.MustAppend(relation.IntVal(3))
	n := NewIndexSet().Numeric(r, "x")
	if n.Len() != 2 || n.Min() != 3 || n.Max() != 7 {
		t.Errorf("len=%d min=%v max=%v, want 2/3/7", n.Len(), n.Min(), n.Max())
	}
	empty := &NumericRows{}
	if empty.Min() != 0 || empty.Max() != 0 {
		t.Error("empty index must report 0 extremes")
	}
}

// TestIndexSetConcurrent hammers lazy builds from many goroutines; run
// under -race it proves the double-checked locking is sound.
func TestIndexSetConcurrent(t *testing.T) {
	rel := testRelation(500)
	set := NewIndexSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				v := rng.Int63n(20)
				_ = set.IntHash(rel, "id").Rows(v)
				_ = set.StrHash(rel, "tag").Rows("green")
			}
		}(int64(g))
	}
	wg.Wait()
	if set.NumIndexes() != 2 {
		t.Errorf("NumIndexes=%d want 2", set.NumIndexes())
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
