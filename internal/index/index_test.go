package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

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

func TestInvertedLookup(t *testing.T) {
	inv := BuildInvertedParallel(testDB(), 1)
	got := inv.Lookup("tom cruise")
	if len(got) != 1 || got[0].Relation != "person" || got[0].Row != 0 {
		t.Errorf("lookup=%v", got)
	}
	// Case and whitespace insensitive.
	if len(inv.Lookup("  TOM   CRUISE ")) != 1 {
		t.Error("normalization failed")
	}
	// "Titanic" appears in two relations, three rows total.
	if len(inv.Lookup("Titanic")) != 3 {
		t.Errorf("Titanic postings=%v", inv.Lookup("Titanic"))
	}
	if inv.NumKeys() == 0 {
		t.Error("NumKeys")
	}
}

func TestCommonColumns(t *testing.T) {
	inv := BuildInvertedParallel(testDB(), 1)
	// Both names only co-occur in person.name.
	matches := inv.CommonColumns([]string{"Tom Cruise", "Clint Eastwood"}, nil)
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
	inv := BuildInvertedParallel(testDB(), 1)
	matches := inv.CommonColumns([]string{"Titanic", "Pulp Fiction"}, nil)
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
	inv := BuildInvertedParallel(testDB(), 1)
	if got := inv.CommonColumns([]string{"Tom Cruise", "Pulp Fiction"}, nil); got != nil {
		t.Errorf("expected no common column, got %v", got)
	}
	if got := inv.CommonColumns(nil, nil); got != nil {
		t.Error("empty input must give nil")
	}
	if got := inv.CommonColumns([]string{"unknown value"}, nil); got != nil {
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
	// Non-int column yields empty index, not a panic.
	empty := BuildIntHash(db.Relation("person"), "name")
	if empty.NumKeys() != 0 {
		t.Error("string column must yield empty int index")
	}
}

func TestIntHashDuplicates(t *testing.T) {
	r := relation.New("fact", relation.Col("pid", relation.Int))
	r.MustAppend(relation.IntVal(7))
	r.MustAppend(relation.IntVal(7))
	r.MustAppend(relation.IntVal(8))
	h := BuildIntHash(r, "pid")
	if got := h.Rows(7); len(got) != 2 {
		t.Errorf("Rows(7)=%v", got)
	}
}

func TestStrHash(t *testing.T) {
	db := testDB()
	h := BuildStrHash(db.Relation("movie"), "title")
	if got := h.Rows("titanic"); len(got) != 2 {
		t.Errorf("Rows(titanic)=%v", got)
	}
	if got := h.Rows("PULP   fiction"); len(got) != 1 {
		t.Errorf("normalized lookup failed: %v", got)
	}
	if h.NumKeys() != 2 {
		t.Errorf("NumKeys=%d", h.NumKeys())
	}
}

func TestSortedCounts(t *testing.T) {
	s := BuildSortedFromValues([]float64{5, 1, 3, 3, 9})
	if s.Len() != 5 || s.Min() != 1 || s.Max() != 9 {
		t.Fatalf("stats: len=%d min=%v max=%v", s.Len(), s.Min(), s.Max())
	}
	if s.CountLE(3) != 3 {
		t.Errorf("CountLE(3)=%d", s.CountLE(3))
	}
	if s.CountLT(3) != 1 {
		t.Errorf("CountLT(3)=%d", s.CountLT(3))
	}
	if s.CountGE(3) != 4 {
		t.Errorf("CountGE(3)=%d", s.CountGE(3))
	}
	if s.CountRange(3, 5) != 3 {
		t.Errorf("CountRange(3,5)=%d", s.CountRange(3, 5))
	}
	if s.CountRange(10, 20) != 0 {
		t.Error("out-of-range must be 0")
	}
	if s.CountRange(5, 3) != 0 {
		t.Error("inverted range must be 0")
	}
}

// Property: CountRange(lo,hi) computed via prefix differences equals a
// brute-force scan, for random data — this is the paper's "smart
// selectivity" identity ψ((l,h]) = ψ([min,h]) − ψ([min,l)).
func TestSortedRangePrefixIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Intn(50))
		}
		s := BuildSortedFromValues(vals)
		lo := float64(r.Intn(50)) - 5
		hi := lo + float64(r.Intn(20))
		want := 0
		for _, v := range vals {
			if v >= lo && v <= hi {
				want++
			}
		}
		return s.CountRange(lo, hi) == want
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: CountLE is monotone non-decreasing.
func TestSortedCountLEMonotone(t *testing.T) {
	vals := make([]float64, 500)
	rng := rand.New(rand.NewSource(7))
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	s := BuildSortedFromValues(vals)
	probes := append([]float64(nil), vals...)
	sort.Float64s(probes)
	prev := -1
	for _, p := range probes {
		c := s.CountLE(p)
		if c < prev {
			t.Fatalf("CountLE not monotone at %v: %d < %d", p, c, prev)
		}
		prev = c
	}
}
