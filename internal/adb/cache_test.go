package adb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"squid/internal/relation"
	"squid/internal/trace"
)

// randomEntityDB builds an entity relation large enough to exercise both
// the sparse (index) and dense (scan) paths of EntityRowSetInRange.
func randomEntityDB(n int) *relation.Database {
	rng := rand.New(rand.NewSource(7))
	db := relation.NewDatabase("rand")
	ent := relation.New("item",
		relation.Col("id", relation.Int),
		relation.Col("label", relation.String),
		relation.Col("weight", relation.Int),
		relation.Col("class", relation.String),
	).SetPrimaryKey("id")
	classes := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		w := relation.IntVal(int64(rng.Intn(1000)))
		if rng.Intn(20) == 0 {
			w = relation.Null // exercise NULL handling
		}
		ent.MustAppend(
			relation.IntVal(int64(i)),
			relation.StringVal(fmt.Sprintf("item %d", i)),
			w,
			relation.StringVal(classes[rng.Intn(len(classes))]),
		)
	}
	db.AddRelation(ent)
	db.MarkEntity("item")
	return db
}

// TestEntityRowsCrossCheck is the property-style oracle of the ISSUE:
// every index-backed row-set accessor must agree with a naive scan.
func TestEntityRowsCrossCheck(t *testing.T) {
	const n = 400
	a, err := Build(randomEntityDB(n), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	info := a.Entity("item")
	weight := info.BasicByAttr("weight")
	if weight == nil || weight.Kind != Numeric {
		t.Fatal("weight property missing")
	}
	naiveRange := func(lo, hi float64) []int {
		var out []int
		for row := 0; row < n; row++ {
			if v, ok := weight.NumValue(row); ok && v >= lo && v <= hi {
				out = append(out, row)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		lo := float64(rng.Intn(1000))
		span := float64(rng.Intn(400)) // narrow → index path, wide → dense path
		if trial%2 == 0 {
			span = float64(900 + rng.Intn(300))
		}
		got := weight.EntityRowSetInRange(lo, lo+span, trace.Span{}, true).ToSorted()
		want := naiveRange(lo, lo+span)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("EntityRowSetInRange(%v,%v): got %d rows, want %d (%v vs %v)",
				lo, lo+span, len(got), len(want), got, want)
		}
		if !sort.IntsAreSorted(got) {
			t.Fatalf("EntityRowSetInRange(%v,%v) not sorted", lo, lo+span)
		}
	}

	class := info.BasicByAttr("class")
	if class == nil {
		t.Fatal("class property missing")
	}
	naiveAny := func(vals []string) []int {
		var out []int
		for row := 0; row < n; row++ {
			for _, have := range values(class, row) {
				matched := false
				for _, want := range vals {
					if have == want {
						matched = true
						break
					}
				}
				if matched {
					out = append(out, row)
					break
				}
			}
		}
		return out
	}
	for _, vals := range [][]string{{"a"}, {"a", "c"}, {"b", "d", "e"}, {"nope"}} {
		got := class.EntityRowSetWithAnyCode(class.codesOf(vals...), trace.Span{}, true).ToSorted()
		want := naiveAny(vals)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("EntityRowSetWithAnyCode(%v): %v want %v", vals, got, want)
		}
	}
}

// TestDerivedStrengthCrossCheck verifies the O(log n) StrengthOf lookup
// and the cached EntityRowSetWithStrength against the Counts oracle on the
// paper's running-example fixture.
func TestDerivedStrengthCrossCheck(t *testing.T) {
	a, err := Build(fixtureDB(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	info := a.Entity("person")
	for _, p := range info.Derived {
		for _, v := range p.DistinctValues() {
			for row := 0; row < info.NumRows; row++ {
				want := countsOf(p, info.IDByRow(row))[v]
				if got := p.StrengthOfCode(row, p.code(v)); got != want {
					t.Errorf("%s: StrengthOfCode(%d,%s)=%d want %d", p.Attr, row, v, got, want)
				}
			}
			for theta := 1; theta <= p.maxStrength(p.code(v)); theta++ {
				var want []int
				for row := 0; row < info.NumRows; row++ {
					if countsOf(p, info.IDByRow(row))[v] >= theta {
						want = append(want, row)
					}
				}
				got := p.EntityRowSetWithStrength(p.code(v), theta, trace.Span{}, true).ToSorted()
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("%s: EntityRowSetWithStrength(%s,%d)=%v want %v", p.Attr, v, theta, got, want)
				}
			}
		}
	}
}

// TestSelectivityCacheInvalidation checks the copy-on-write memo
// contract: an insert republishes the touched properties as clones with
// empty memos (so the new epoch can never hit a pre-insert answer and
// Len, which counts the current epoch only, drops), while a handle
// pinned to the retired epoch keeps answering from exactly the
// pre-insert state.
func TestSelectivityCacheInvalidation(t *testing.T) {
	a, err := Build(fixtureDB(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oldInfo := a.Entity("person")
	oldAge := oldInfo.BasicByAttr("age")
	cache := a.SelectivityCache()

	before := oldAge.EntityRowSetInRange(45, 65, trace.Span{}, true).ToSorted() // populate the cache
	if cache.Len() == 0 {
		t.Fatal("cache not populated by EntityRowSetInRange")
	}

	// Insert a 50-year-old: the cached [45,65] row set belongs to the
	// retired epoch now.
	err = a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{relation.IntVal(7), relation.StringVal("New Actor"), relation.StringVal("Male"), relation.IntVal(50), relation.IntVal(1)}}}, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Errorf("the entity insert left %d retired cache entries", cache.Len())
	}
	info := a.Entity("person")
	age := info.BasicByAttr("age")
	if age == oldAge {
		t.Fatal("insert did not clone the touched property")
	}
	after := age.EntityRowSetInRange(45, 65, trace.Span{}, true).ToSorted()
	if len(after) != len(before)+1 {
		t.Errorf("post-insert range rows = %d want %d", len(after), len(before)+1)
	}
	newRow, ok := info.RowByID(7)
	if !ok {
		t.Fatal("inserted entity unresolvable")
	}
	found := false
	for _, r := range after {
		if r == newRow {
			found = true
		}
	}
	if !found {
		t.Error("post-insert range rows missing the new entity")
	}
	// The retired epoch's handle still answers pre-insert (snapshot
	// isolation) from its own memo, which the new epoch cannot reach.
	if got := oldAge.EntityRowSetInRange(45, 65, trace.Span{}, true).ToSorted(); len(got) != len(before) {
		t.Errorf("retired epoch's row set changed: %d want %d", len(got), len(before))
	}

	// Fact inserts must retire derived-row memos too.
	ptg := info.DerivedByAttr("movie:genre")
	if ptg == nil {
		t.Fatal("movie:genre derived property missing")
	}
	preRows := ptg.EntityRowSetWithStrength(ptg.code("Drama"), 1, trace.Span{}, true).ToSorted()
	// Person 3 appears in movie 13 (Drama) for the first time.
	if err := a.InsertBatch([]InsertOp{{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(3), relation.IntVal(13)}}}, trace.Span{}); err != nil {
		t.Fatal(err)
	}
	ptg2 := a.Entity("person").DerivedByAttr("movie:genre")
	if ptg2 == ptg {
		t.Fatal("fact insert did not clone the derived property")
	}
	postRows := ptg2.EntityRowSetWithStrength(ptg2.code("Drama"), 1, trace.Span{}, true).ToSorted()
	if len(postRows) != len(preRows)+1 {
		t.Errorf("post-fact Drama rows = %v want one more than %v", postRows, preRows)
	}
	if !sort.IntsAreSorted(postRows) {
		t.Errorf("post-fact rows not sorted: %v", postRows)
	}
	if got := ptg.EntityRowSetWithStrength(ptg.code("Drama"), 1, trace.Span{}, true).ToSorted(); len(got) != len(preRows) {
		t.Errorf("retired derived row set changed: %v want %v", got, preRows)
	}
	rebuildAndCompare(t, a)
}

// TestPerPropertyInvalidation is the acceptance check of the
// copy-on-write per-property scheme: an insert touching only relation A
// leaves cached entries for properties of relation B live (B's
// properties keep their identities across the epoch publish), while A's
// properties are republished as clones and their entries evicted.
func TestPerPropertyInvalidation(t *testing.T) {
	a, err := Build(fixtureDB(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	person := a.Entity("person")
	movie := a.Entity("movie")
	age := person.BasicByAttr("age")
	year := movie.BasicByAttr("year")
	if age == nil || year == nil {
		t.Fatal("fixture properties missing")
	}
	cache := a.SelectivityCache()

	_ = age.EntityRowSetInRange(45, 65, trace.Span{}, true)
	yearRows := year.EntityRowSetInRange(2000, 2003, trace.Span{}, true).ToSorted()
	if cache.Len() != 2 {
		t.Fatalf("cache primed with %d entries, want 2", cache.Len())
	}

	// Insert into person: only person's properties are republished.
	err = a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{relation.IntVal(7), relation.StringVal("New Actor"), relation.StringVal("Male"), relation.IntVal(50), relation.IntVal(1)}}}, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	person2 := a.Entity("person")
	if person2.BasicByAttr("age") == age {
		t.Error("person insert did not republish the person property")
	}
	year2 := a.Entity("movie").BasicByAttr("year")
	if year2 != year {
		t.Error("person insert republished the movie property")
	}
	if cache.Len() != 1 {
		t.Errorf("cache has %d entries after person insert, want only the movie entry", cache.Len())
	}
	h0, _ := cache.Metrics()
	got := year2.EntityRowSetInRange(2000, 2003, trace.Span{}, true).ToSorted()
	if h1, _ := cache.Metrics(); h1 != h0+1 {
		t.Error("movie row set was not served from cache after a person insert")
	}
	if !reflect.DeepEqual(got, yearRows) {
		t.Errorf("movie row set changed across a person insert: %v vs %v", got, yearRows)
	}

	// A fact insert republishes only the properties routed through that
	// fact: the direct age and year properties keep their identities
	// (and live cache entries), the derived movie:genre property is
	// cloned and its entry evicted.
	age2 := person2.BasicByAttr("age")
	_ = age2.EntityRowSetInRange(45, 65, trace.Span{}, true) // prime person.age on the current epoch
	ptg := person2.DerivedByAttr("movie:genre")
	if ptg == nil {
		t.Fatal("movie:genre derived property missing")
	}
	_ = ptg.EntityRowSetWithStrength(ptg.code("Drama"), 1, trace.Span{}, true)
	if cache.Len() != 3 {
		t.Fatalf("cache primed with %d entries, want 3", cache.Len())
	}
	if err := a.InsertBatch([]InsertOp{{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(3), relation.IntVal(13)}}}, trace.Span{}); err != nil {
		t.Fatal(err)
	}
	person3 := a.Entity("person")
	if person3.DerivedByAttr("movie:genre") == ptg {
		t.Error("fact insert did not republish the derived property")
	}
	if person3.BasicByAttr("age") != age2 {
		t.Error("fact insert republished the direct age property")
	}
	if a.Entity("movie").BasicByAttr("year") != year {
		t.Error("fact insert republished the movie.year property")
	}
	if cache.Len() != 2 {
		t.Errorf("cache has %d entries after fact insert, want age and year live", cache.Len())
	}
	rebuildAndCompare(t, a)
}

// TestRetiredEntriesNotServed pins the ownership contract of the
// per-property memos: a clone never sees the retired property's memo,
// Len counts the current epoch's entries only (whatever a reader still
// pinned to a retired epoch memoizes there), and a retired property is
// collected together with its memo once no reader pins it.
func TestRetiredEntriesNotServed(t *testing.T) {
	a, err := Build(fixtureDB(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := a.SelectivityCache()
	retired := a.Entity("person").BasicByAttr("age")
	pre := retired.EntityRowSetInRange(45, 65, trace.Span{}, true)
	var collected atomic.Int32
	runtime.SetFinalizer(retired, func(*BasicProperty) { collected.Add(1) })
	runtime.SetFinalizer(retired.memo, func(*rowSetMemo) { collected.Add(1) })

	err = a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{relation.IntVal(7), relation.StringVal("New Actor"), relation.StringVal("Male"), relation.IntVal(50), relation.IntVal(1)}}}, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	clone := a.Entity("person").BasicByAttr("age")
	if clone == retired || clone.memo == retired.memo {
		t.Fatal("the republished property shares the retired memo")
	}
	if cache.Len() != 0 {
		t.Fatalf("Len = %d after the publish, want 0: retired entries are not current", cache.Len())
	}
	// The clone's lookup must recompute, never alias the retired entry.
	_, m0 := cache.Metrics()
	post := clone.EntityRowSetInRange(45, 65, trace.Span{}, true)
	if _, m1 := cache.Metrics(); m1 != m0+1 {
		t.Error("clone was served from a memo it never filled")
	}
	if post.Count() != pre.Count()+1 {
		t.Errorf("clone computed %d rows, want the retired %d plus the new entity", post.Count(), pre.Count())
	}
	// A reader still pinned to the retired epoch keeps hitting the
	// retired memo, and what it stores there stays out of Len.
	h0, _ := cache.Metrics()
	if again := retired.EntityRowSetInRange(45, 65, trace.Span{}, true); again != pre {
		t.Error("retired property recomputed a set its memo holds")
	}
	if h1, _ := cache.Metrics(); h1 != h0+1 {
		t.Error("retired property's lookup was not a hit")
	}
	_ = retired.EntityRowSetInRange(0, 200, trace.Span{}, true)
	if cache.Len() != 1 {
		t.Fatalf("Len = %d, want only the clone's entry", cache.Len())
	}
	cache.Invalidate()
	if cache.Len() != 0 {
		t.Fatal("Invalidate left entries")
	}

	// Drop the pins: the retired epoch, property and memo are garbage.
	// Finalizers need a cycle to queue and one to run, and the epoch's
	// own finalizer goes first, so poll briefly.
	retired, pre = nil, nil
	deadline := time.Now().Add(5 * time.Second)
	for collected.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("retired property and memo never collected: %d of 2 finalizers ran", collected.Load())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDisjunctionCacheKey regresses the disjunction cache key: value
// sets must share one entry regardless of order, and values containing
// NUL must not collide with a different set that joins to the same
// bytes (the old '\x00' join aliased {"a\x00b","c"} and {"a","b\x00c"}).
func TestDisjunctionCacheKey(t *testing.T) {
	db := relation.NewDatabase("nul")
	ent := relation.New("thing",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("class", relation.String),
	).SetPrimaryKey("id")
	classes := []string{"a\x00b", "c", "a", "b\x00c", "a", "c"}
	for i, cl := range classes {
		ent.MustAppend(relation.IntVal(int64(i)),
			relation.StringVal(fmt.Sprintf("thing %d", i)),
			relation.StringVal(cl))
	}
	db.AddRelation(ent)
	db.MarkEntity("thing")
	a, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	class := a.Entity("thing").BasicByAttr("class")
	if class == nil {
		t.Fatal("class property missing")
	}
	r1 := class.EntityRowSetWithAnyCode(class.codesOf([]string{"a\x00b", "c"}...), trace.Span{}, true).ToSorted()
	r2 := class.EntityRowSetWithAnyCode(class.codesOf([]string{"a", "b\x00c"}...), trace.Span{}, true).ToSorted()
	if !reflect.DeepEqual(r1, []int{0, 1, 5}) {
		t.Errorf(`rows of {"a\x00b","c"} = %v, want [0 1 5]`, r1)
	}
	if !reflect.DeepEqual(r2, []int{2, 3, 4}) {
		t.Errorf(`rows of {"a","b\x00c"} = %v, want [2 3 4] (NUL key collision?)`, r2)
	}

	// Order canonicalization: the reversed set must hit the same entry.
	cache := a.SelectivityCache()
	h0, _ := cache.Metrics()
	r3 := class.EntityRowSetWithAnyCode(class.codesOf([]string{"c", "a\x00b"}...), trace.Span{}, true).ToSorted()
	if h1, _ := cache.Metrics(); h1 != h0+1 {
		t.Error("reordered disjunction missed the cache")
	}
	if !reflect.DeepEqual(r3, r1) {
		t.Errorf("reordered disjunction rows = %v, want %v", r3, r1)
	}
}

// TestCacheMetrics checks the hit/miss accounting the batch API
// monitors.
func TestCacheMetrics(t *testing.T) {
	a, err := Build(fixtureDB(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	age := a.Entity("person").BasicByAttr("age")
	cache := a.SelectivityCache()
	h0, m0 := cache.Metrics()
	_ = age.EntityRowSetInRange(40, 70, trace.Span{}, true)
	_ = age.EntityRowSetInRange(40, 70, trace.Span{}, true)
	h1, m1 := cache.Metrics()
	if m1 != m0+1 {
		t.Errorf("misses %d -> %d, want one new miss", m0, m1)
	}
	if h1 != h0+1 {
		t.Errorf("hits %d -> %d, want one new hit", h0, h1)
	}
}

// code returns the code of v in the property's dictionary, NoCode when
// it lacks v.
func (p *DerivedProperty) code(v string) int32 {
	if code, ok := p.LookupCode(v); ok {
		return code
	}
	return relation.NoCode
}

// maxStrength returns the largest strength of the value of code, 0
// when no entity is associated with it.
func (p *DerivedProperty) maxStrength(code int32) int {
	if cs := p.statsOf(code); cs != nil {
		return cs.ge.Len()
	}
	return 0
}

// code returns the code of v in the property's dictionary, NoCode when
// it lacks v.
func (p *BasicProperty) code(v string) int32 {
	if code, ok := p.LookupCode(v); ok {
		return code
	}
	return relation.NoCode
}

// codesOf returns the codes of values in the property's dictionary,
// NoCode for one it lacks.
func (p *BasicProperty) codesOf(values ...string) []int32 {
	codes := make([]int32, len(values))
	for i, v := range values {
		codes[i] = p.code(v)
	}
	return codes
}
