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

func TestIndexSetNoteAppend(t *testing.T) {
	rel := testRelation(50)
	set := NewIndexSet()
	ih := set.IntHash(rel, "id")
	sh := set.StrHash(rel, "tag")

	rel.MustAppend(relation.IntVal(99), relation.StringVal("purple"))
	set.NoteAppend(rel, rel.NumRows()-1)

	wantInt := BuildIntHash(rel, "id")
	wantStr := BuildStrHash(rel, "tag")
	for v := int64(0); v < 100; v++ {
		if !reflect.DeepEqual(ih.Rows(v), wantInt.Rows(v)) {
			t.Errorf("after append, Rows(%d) = %v want %v", v, ih.Rows(v), wantInt.Rows(v))
		}
	}
	if !reflect.DeepEqual(sh.Rows("purple"), wantStr.Rows("purple")) {
		t.Errorf("after append, Rows(purple) = %v want %v", sh.Rows("purple"), wantStr.Rows("purple"))
	}
}

func TestIndexSetDrop(t *testing.T) {
	rel := testRelation(50)
	set := NewIndexSet()
	set.IntHash(rel, "id")
	set.StrHash(rel, "tag")
	set.Drop("t", "id")
	if set.NumIndexes() != 1 {
		t.Errorf("after drop, NumIndexes=%d want 1", set.NumIndexes())
	}
	// Rebuilding after a drop reflects current data.
	rel.MustAppend(relation.IntVal(5), relation.StringVal("red"))
	if got, want := set.IntHash(rel, "id").Rows(5), BuildIntHash(rel, "id").Rows(5); !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt Rows(5) = %v want %v", got, want)
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
