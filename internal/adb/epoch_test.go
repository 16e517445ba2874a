package adb

import (
	"fmt"
	"sync"
	"testing"

	"squid/internal/relation"
	"squid/internal/trace"
)

// lookupRows counts the rows entity lookup finds for v in e, in every
// column.
func lookupRows(e *Epoch, v string) int {
	n := 0
	for _, m := range e.CommonColumns([]string{v}) {
		n += len(m.Rows[0])
	}
	return n
}

// TestEpochSnapshotIsolation is the acceptance check of the
// copy-on-write scheme: a reader that pinned an epoch before an insert
// batch must never observe the new rows — not through the relations,
// not through the property statistics, and not through entity lookup
// over the shared dictionaries — while a reader pinning afterwards sees
// all of them.
func TestEpochSnapshotIsolation(t *testing.T) {
	a := buildFixture(t)
	pre := a.Snapshot()
	preRows := pre.Entity("person").NumRows
	preSel := pre.Entity("person").BasicByAttr("gender").SelectivityOfCode(pre.Entity("person").BasicByAttr("gender").code("Male"))
	if n := lookupRows(pre, "fresh face"); n != 0 {
		t.Fatalf("pre epoch already finds %d rows", n)
	}
	seq0 := pre.Seq()

	err := a.InsertBatch([]InsertOp{
		{Rel: "person", Vals: []relation.Value{
			relation.IntVal(7), relation.StringVal("Fresh Face"),
			relation.StringVal("Male"), relation.IntVal(33), relation.IntVal(1)}},
		{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(7), relation.IntVal(13)}},
	}, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	post := a.Snapshot()
	if post.Seq() != seq0+1 {
		t.Errorf("epoch seq %d want %d", post.Seq(), seq0+1)
	}

	// The retired epoch is frozen: row counts, statistics, lookups.
	if got := pre.Entity("person").NumRows; got != preRows {
		t.Errorf("pre epoch rows moved: %d want %d", got, preRows)
	}
	if got := pre.Entity("person").Rel().NumRows(); got != preRows {
		t.Errorf("pre epoch relation rows moved: %d want %d", got, preRows)
	}
	if got := pre.Entity("person").BasicByAttr("gender").SelectivityOfCode(pre.Entity("person").BasicByAttr("gender").code("Male")); got != preSel {
		t.Errorf("pre epoch ψ(Male) moved: %v want %v", got, preSel)
	}
	if n := lookupRows(pre, "fresh face"); n != 0 {
		t.Errorf("pre epoch finds %d rows of the new name", n)
	}
	if m := pre.CommonColumns([]string{"Fresh Face"}); len(m) != 0 {
		t.Errorf("pre epoch resolves the new example: %v", m)
	}

	// The new epoch sees everything, atomically.
	if got := post.Entity("person").NumRows; got != preRows+1 {
		t.Errorf("post epoch rows %d want %d", got, preRows+1)
	}
	if n := lookupRows(post, "fresh face"); n != 1 {
		t.Errorf("post epoch finds %d rows, want 1", n)
	}
	if got := countsOf(post.Entity("person").DerivedByAttr("movie:genre"), 7)["Drama"]; got != 1 {
		t.Errorf("post epoch derived count = %d want 1", got)
	}
	rebuildAndCompare(t, a)
}

// buildStudioFixture is the fixture plus a studio entity no fact links
// to the rest, so two writers can insert into relations that share
// nothing.
func buildStudioFixture(t *testing.T) *AlphaDB {
	t.Helper()
	db := fixtureDB()
	studio := relation.New("studio",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("city", relation.String),
	).SetPrimaryKey("id")
	for i, city := range []string{"Burbank", "Culver City", "Burbank"} {
		studio.MustAppend(relation.IntVal(int64(i+1)), relation.StringVal(fmt.Sprintf("Studio %d", i+1)), relation.StringVal(city))
	}
	db.AddRelation(studio)
	db.MarkEntity("studio")
	a, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestConcurrentInsertBatchesSerialize runs two writers concurrently
// (person vs studio entity inserts) with a reader pinning epochs
// mid-flight; under -race it proves the write lock serializes them, and
// afterwards it checks the chain: every batch published exactly one
// epoch, all rows landed, and the incrementally maintained statistics
// match a fresh rebuild.
func TestConcurrentInsertBatchesSerialize(t *testing.T) {
	a := buildStudioFixture(t)
	const perWriter = 24
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < perWriter; i++ {
			id := int64(100 + i)
			if err := a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{
				relation.IntVal(id), relation.StringVal(fmt.Sprintf("Person %d", id)),
				relation.StringVal("Female"), relation.IntVal(30 + int64(i)), relation.IntVal(1)}}}, trace.Span{}); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < perWriter; i++ {
			id := int64(500 + i)
			if err := a.InsertBatch([]InsertOp{{Rel: "studio", Vals: []relation.Value{
				relation.IntVal(id), relation.StringVal(fmt.Sprintf("Indie %d", id)),
				relation.StringVal("Burbank")}}}, trace.Span{}); err != nil {
				errs[1] = err
				return
			}
		}
	}()
	// A reader pins epochs concurrently; its view must always be a
	// prefix-consistent snapshot (never a torn row count).
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	var readErr error
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ep := a.Snapshot()
			info := ep.Entity("person")
			if info.NumRows != info.Rel().NumRows() {
				readErr = fmt.Errorf("torn epoch: info %d rel %d", info.NumRows, info.Rel().NumRows())
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	rwg.Wait()
	for _, err := range append(errs, readErr) {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := a.Entity("person").NumRows; got != 6+perWriter {
		t.Errorf("person rows = %d want %d", got, 6+perWriter)
	}
	if got := a.Entity("studio").NumRows; got != 3+perWriter {
		t.Errorf("studio rows = %d want %d", got, 3+perWriter)
	}
	if es := a.EpochStats(); es.Publishes != 2*perWriter || es.Seq != 2*perWriter {
		t.Errorf("publishes = %d, seq = %d, want %d each (one per batch)", es.Publishes, es.Seq, 2*perWriter)
	}
	rebuildAndCompare(t, a)
}

// TestRejectedInsertPublishesNothing regresses two review findings: a
// rejected row (type mismatch, arity, duplicate key) must not publish
// a data-identical epoch, and — because rows validate atomically
// before any cell is written — must not leave a ragged column that
// would shift every later value of that column by one.
func TestRejectedInsertPublishesNothing(t *testing.T) {
	a := buildFixture(t)
	seq0 := a.EpochStats().Seq
	pub0 := a.EpochStats().Publishes

	// Type mismatch mid-row: castinfo is (int, int).
	if err := a.InsertBatch([]InsertOp{{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(3), relation.StringVal("oops")}}}, trace.Span{}); err == nil {
		t.Fatal("type-mismatched fact insert must fail")
	}
	// Arity mismatch and duplicate key on the entity path.
	if err := a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{relation.IntVal(8)}}}, trace.Span{}); err == nil {
		t.Fatal("arity-mismatched entity insert must fail")
	}
	if err := a.InsertBatch([]InsertOp{{Rel: "person", Vals: []relation.Value{relation.IntVal(1), relation.StringVal("Dup"), relation.StringVal("Male"), relation.IntVal(40), relation.IntVal(1)}}}, trace.Span{}); err == nil {
		t.Fatal("duplicate-key entity insert must fail")
	}
	if es := a.EpochStats(); es.Seq != seq0 || es.Publishes != pub0 {
		t.Errorf("rejected inserts published epochs: seq %d->%d publishes %d->%d",
			seq0, es.Seq, pub0, es.Publishes)
	}

	// A valid fact insert after the rejected one must land unshifted:
	// person 3 (row 2) gains Drama movie 13, and the fact row decodes
	// to exactly the values inserted.
	if err := a.InsertBatch([]InsertOp{{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(3), relation.IntVal(13)}}}, trace.Span{}); err != nil {
		t.Fatal(err)
	}
	ep := a.Snapshot()
	fact := ep.DB.Relation("castinfo")
	last := fact.NumRows() - 1
	if p, m := fact.Column("person_id").Int64(last), fact.Column("movie_id").Int64(last); p != 3 || m != 13 {
		t.Errorf("fact row shifted: got (%d,%d) want (3,13)", p, m)
	}
	if got := countsOf(ep.Entity("person").DerivedByAttr("movie:genre"), 3)["Drama"]; got != 1 {
		t.Errorf("derived Drama count = %d want 1", got)
	}
	rebuildAndCompare(t, a)
}
