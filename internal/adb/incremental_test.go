package adb

import (
	"math"
	"testing"

	"squid/internal/relation"
	"squid/internal/trace"
)

// rebuildAndCompare rebuilds the αDB from scratch and checks that the
// incrementally-maintained statistics match the batch-built ones for
// every property — the correctness oracle of the maintenance extension.
func rebuildAndCompare(t *testing.T, a *AlphaDB) {
	t.Helper()
	fresh, err := Build(a.DB(), a.Config())
	if err != nil {
		t.Fatal(err)
	}
	for name, info := range a.Snapshot().Entities {
		freshInfo := fresh.Entity(name)
		if freshInfo == nil {
			t.Fatalf("entity %q vanished", name)
		}
		if info.NumRows != freshInfo.NumRows {
			t.Errorf("%s: rows %d vs %d", name, info.NumRows, freshInfo.NumRows)
		}
		for _, p := range info.Basic {
			fp := freshInfo.BasicByAttr(p.Attr)
			if fp == nil {
				t.Errorf("%s: basic property %q missing after rebuild", name, p.Attr)
				continue
			}
			if p.Kind == Categorical {
				for _, v := range fp.DistinctValues() {
					if got, want := p.CategoricalSelectivity(v), fp.CategoricalSelectivity(v); math.Abs(got-want) > 1e-9 {
						t.Errorf("%s.%s ψ(%s)=%v incremental vs %v rebuilt", name, p.Attr, v, got, want)
					}
				}
			} else {
				lo, hi, _ := fp.NumRange()
				if got, want := p.RangeSelectivity(lo, hi), fp.RangeSelectivity(lo, hi); math.Abs(got-want) > 1e-9 {
					t.Errorf("%s.%s full-range ψ=%v vs %v", name, p.Attr, got, want)
				}
				mid := (lo + hi) / 2
				if got, want := p.DomainCoverage(lo, mid), fp.DomainCoverage(lo, mid); got != want {
					t.Errorf("%s.%s half-range coverage=%v vs %v", name, p.Attr, got, want)
				}
			}
		}
		for _, p := range info.Derived {
			fp := freshInfo.DerivedByAttr(p.Attr)
			if fp == nil {
				t.Errorf("%s: derived property %q missing after rebuild", name, p.Attr)
				continue
			}
			for _, v := range fp.DistinctValues() {
				for theta := 1; theta <= fp.MaxStrength(v); theta++ {
					if got, want := p.Selectivity(v, theta), fp.Selectivity(v, theta); math.Abs(got-want) > 1e-9 {
						t.Errorf("%s.%s ψ(%s,%d)=%v incremental vs %v rebuilt", name, p.Attr, v, theta, got, want)
					}
				}
			}
		}
	}
}

func TestInsertEntityMaintainsStats(t *testing.T) {
	a := buildFixture(t)
	// Insert a new Canadian male person aged 45.
	err := a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{relation.IntVal(100), relation.StringVal("New Actor"), relation.StringVal("Male"), relation.IntVal(45), relation.IntVal(2)}}}, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	info := a.Entity("person")
	if info.NumRows != 7 {
		t.Fatalf("rows=%d", info.NumRows)
	}
	if row, ok := info.RowByID(100); !ok || row != 6 {
		t.Errorf("new entity not resolvable: %d %v", row, ok)
	}
	// ψ(gender=Male) is now 4/7.
	if got := info.BasicByAttr("gender").CategoricalSelectivity("Male"); math.Abs(got-4.0/7.0) > 1e-9 {
		t.Errorf("ψ(Male)=%v want 4/7", got)
	}
	// The new name is findable via the inverted index.
	if got := a.Snapshot().InvertedLookup("new actor"); len(got) != 1 {
		t.Errorf("inverted index not updated: %v", got)
	}
	rebuildAndCompare(t, a)
}

func TestInsertEntityErrors(t *testing.T) {
	a := buildFixture(t)
	// InsertBatch routes a row by its relation; the entity path still
	// checks the kind itself.
	if err := a.newEpochBuilder().insertEntity("castinfo", []relation.Value{relation.IntVal(1), relation.IntVal(2)}); err == nil {
		t.Error("insert into non-entity must fail")
	}
	// Duplicate primary key.
	if err := a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{relation.IntVal(1), relation.StringVal("Dup"), relation.StringVal("Male"), relation.IntVal(40), relation.IntVal(1)}}}, trace.Span{}); err == nil {
		t.Error("duplicate PK must fail")
	}
	// NULL primary key.
	if err := a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{relation.Null, relation.StringVal("x"), relation.StringVal("Male"), relation.IntVal(40), relation.IntVal(1)}}}, trace.Span{}); err == nil {
		t.Error("NULL PK must fail")
	}
}

func TestInsertFactMaintainsDerived(t *testing.T) {
	a := buildFixture(t)
	oldPtg := a.Entity("person").DerivedByAttr("movie:genre")
	before := oldPtg.Counts(3)["Comedy"] // person 3 had 1 comedy (movie 10)

	// Person 3 also appears in movie 11 (Comedy).
	if err := a.InsertBatch([]InsertOp{{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(3), relation.IntVal(11)}}}, trace.Span{}); err != nil {
		t.Fatal(err)
	}
	// Handles are epoch-pinned: the current epoch sees the new fact,
	// the pre-insert handle keeps its snapshot.
	info := a.Entity("person")
	after := info.DerivedByAttr("movie:genre").Counts(3)["Comedy"]
	if after != before+1 {
		t.Errorf("comedy count %d -> %d, want +1", before, after)
	}
	if got := oldPtg.Counts(3)["Comedy"]; got != before {
		t.Errorf("retired epoch's count moved: %d want %d", got, before)
	}
	// The entity-association property gained the new title.
	movieProp := info.BasicByAttr("movie")
	if movieProp != nil {
		found := false
		for _, v := range movieProp.Values(2) { // person 3 is row 2
			if v == "MovieB" {
				found = true
			}
		}
		if !found {
			t.Error("entity-association property missing the new movie")
		}
	}
	rebuildAndCompare(t, a)
}

func TestInsertFactNewValue(t *testing.T) {
	a := buildFixture(t)
	// Person 1 (only comedies) now appears in drama movie 13.
	if err := a.InsertBatch([]InsertOp{{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(1), relation.IntVal(13)}}}, trace.Span{}); err != nil {
		t.Fatal(err)
	}
	ptg := a.Entity("person").DerivedByAttr("movie:genre")
	if got := ptg.Counts(1)["Drama"]; got != 1 {
		t.Errorf("new drama association=%d want 1", got)
	}
	rebuildAndCompare(t, a)
}

func TestInsertFactForNewEntity(t *testing.T) {
	// Insert an entity then connect it with facts: the full dynamic
	// workflow.
	a := buildFixture(t)
	if err := a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{relation.IntVal(50), relation.StringVal("Rising Star"), relation.StringVal("Female"), relation.IntVal(30), relation.IntVal(1)}}}, trace.Span{}); err != nil {
		t.Fatal(err)
	}
	for _, movieID := range []int64{10, 11, 12} {
		if err := a.InsertBatch([]InsertOp{{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(50), relation.IntVal(movieID)}}}, trace.Span{}); err != nil {
			t.Fatal(err)
		}
	}
	info := a.Entity("person")
	ptg := info.DerivedByAttr("movie:genre")
	if got := ptg.Counts(50)["Comedy"]; got != 3 {
		t.Errorf("new entity's comedy count=%d want 3", got)
	}
	deg := info.DerivedByAttr("movie:count")
	if got := deg.Counts(50)["movie"]; got != 3 {
		t.Errorf("degree=%d want 3", got)
	}
	rebuildAndCompare(t, a)
}

func TestInsertFactErrors(t *testing.T) {
	a := buildFixture(t)
	if err := a.newEpochBuilder().insertFact("person", []relation.Value{relation.IntVal(1)}); err == nil {
		t.Error("insert into entity relation as fact must fail")
	}
	if err := a.InsertBatch([]InsertOp{{Rel: "nope", Vals: []relation.Value{relation.IntVal(1)}}}, trace.Span{}); err == nil {
		t.Error("unknown relation must fail")
	}
	// Wrong arity.
	if err := a.InsertBatch([]InsertOp{{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(1)}}}, trace.Span{}); err == nil {
		t.Error("arity mismatch must fail")
	}
}
