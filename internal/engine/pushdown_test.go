package engine

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"squid/internal/index"
	"squid/internal/relation"
)

// pushdownDB builds a relation comfortably above indexMinRows so point
// predicates take the hash-index path.
func pushdownDB(n int) *relation.Database {
	db := relation.NewDatabase("push")
	items := relation.New("items",
		relation.Col("id", relation.Int),
		relation.Col("cat", relation.String),
		relation.Col("score", relation.Int),
	).SetPrimaryKey("id")
	cats := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		items.MustAppend(
			relation.IntVal(int64(i)),
			relation.StringVal(cats[i%len(cats)]),
			relation.IntVal(int64(i%10)),
		)
	}
	db.AddRelation(items)

	tags := relation.New("tags",
		relation.Col("item_id", relation.Int),
		relation.Col("tag", relation.String),
	).AddForeignKey("item_id", "items", "id")
	for i := 0; i < n; i += 2 {
		tags.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("tag%d", i%5)))
	}
	db.AddRelation(tags)
	return db
}

// filterRows runs the anchor's stage on its own: the rows of rel that
// satisfy preds, through whatever access path the executor picks.
func filterRows(e *Executor, rel *relation.Relation, preds []Pred) []int {
	bound := make([]rowPred, len(preds))
	for i, p := range preds {
		var err error
		if bound[i], err = bindPred(p, rel.Column(p.Col)); err != nil {
			panic(err)
		}
	}
	builds := 0
	rows, _ := scan(rel, bound, e.access(rel, bound, &builds))
	return rows
}

// scanRows evaluates predicates by brute force, the oracle for the
// index-backed filterRows.
func scanRows(rel *relation.Relation, preds []Pred) []int {
	var out []int
	for row := 0; row < rel.NumRows(); row++ {
		ok := true
		for _, p := range preds {
			if !p.Matches(rel.Column(p.Col).Get(row)) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, row)
		}
	}
	return out
}

func TestFilterRowsIndexVsScan(t *testing.T) {
	db := pushdownDB(200)
	e := NewExecutor(db)
	items := db.Relation("items")
	cases := [][]Pred{
		{{Rel: "items", Col: "id", Op: OpEq, Val: relation.IntVal(17)}},
		{{Rel: "items", Col: "cat", Op: OpEq, Val: relation.StringVal("beta")}},
		{
			{Rel: "items", Col: "cat", Op: OpEq, Val: relation.StringVal("gamma")},
			{Rel: "items", Col: "score", Op: OpGE, Val: relation.IntVal(5)},
		},
		{{Rel: "items", Col: "cat", Op: OpIn, Vals: []relation.Value{
			relation.StringVal("alpha"), relation.StringVal("delta")}}},
		{{Rel: "items", Col: "cat", Op: OpEq, Val: relation.StringVal("missing")}},
		{{Rel: "items", Col: "score", Op: OpGE, Val: relation.IntVal(8)}}, // range pushdown
		{{Rel: "items", Col: "score", Op: OpLE, Val: relation.IntVal(2)}},
		{{Rel: "items", Col: "score", Op: OpGT, Val: relation.IntVal(7)}},
		{{Rel: "items", Col: "score", Op: OpLT, Val: relation.IntVal(3)}},
		{ // BETWEEN: both bounds combine into one sorted-index probe
			{Rel: "items", Col: "score", Op: OpGE, Val: relation.IntVal(3)},
			{Rel: "items", Col: "score", Op: OpLE, Val: relation.IntVal(6)},
		},
		{ // strict BETWEEN
			{Rel: "items", Col: "score", Op: OpGT, Val: relation.IntVal(3)},
			{Rel: "items", Col: "score", Op: OpLT, Val: relation.IntVal(6)},
		},
		{ // empty range
			{Rel: "items", Col: "score", Op: OpGE, Val: relation.IntVal(6)},
			{Rel: "items", Col: "score", Op: OpLE, Val: relation.IntVal(3)},
		},
	}
	for i, preds := range cases {
		got := filterRows(e, items, preds)
		want := scanRows(items, preds)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("case %d: filterRows=%v want %v", i, got, want)
		}
		if !sort.IntsAreSorted(got) {
			t.Errorf("case %d: rows not sorted", i)
		}
	}
}

// rangeEdgeDB builds a relation above indexMinRows with a float column
// carrying NULLs and a lexicographic string column, the substrate for
// the range-pushdown edge cases: the float column exercises the sorted
// numeric index, the string column has no numeric index at all.
func rangeEdgeDB(n int) *relation.Database {
	db := relation.NewDatabase("edges")
	m := relation.New("measures",
		relation.Col("id", relation.Int),
		relation.Col("temp", relation.Float),
		relation.Col("grade", relation.String),
		relation.Col("score", relation.Int),
	).SetPrimaryKey("id")
	grades := []string{"A", "B", "C", "D", "F"}
	for i := 0; i < n; i++ {
		temp := relation.FloatVal(float64(i%20) + 0.5)
		if i%7 == 3 {
			temp = relation.Null // NULLs must never satisfy a range
		}
		m.MustAppend(
			relation.IntVal(int64(i)),
			temp,
			relation.StringVal(grades[i%len(grades)]),
			relation.IntVal(int64(i%10)),
		)
	}
	db.AddRelation(m)
	return db
}

// TestRangePushdownEdgeCases pins the index-vs-scan equivalence on the
// awkward shapes: reversed BETWEEN bounds, empty ranges beyond either
// end of the data, open-ended one-sided scans, ranges over a column
// with NULLs, and range predicates on a string column — which has no
// numeric index, so the executor must fall back to scanning (or verify
// against another predicate's candidates) and still answer correctly.
func TestRangePushdownEdgeCases(t *testing.T) {
	db := rangeEdgeDB(210)
	e := NewExecutor(db)
	m := db.Relation("measures")
	fv := relation.FloatVal
	iv := relation.IntVal
	sv := relation.StringVal
	cases := []struct {
		name  string
		preds []Pred
		empty bool // the oracle must agree AND the result must be empty
	}{
		{"reversed BETWEEN", []Pred{
			{Rel: "measures", Col: "temp", Op: OpGE, Val: fv(15)},
			{Rel: "measures", Col: "temp", Op: OpLE, Val: fv(5)},
		}, true},
		{"strict crossing bounds", []Pred{
			{Rel: "measures", Col: "temp", Op: OpGT, Val: fv(5.5)},
			{Rel: "measures", Col: "temp", Op: OpLT, Val: fv(5.5)},
		}, true},
		{"point BETWEEN (lo == hi)", []Pred{
			{Rel: "measures", Col: "temp", Op: OpGE, Val: fv(5.5)},
			{Rel: "measures", Col: "temp", Op: OpLE, Val: fv(5.5)},
		}, false},
		{"empty beyond max", []Pred{
			{Rel: "measures", Col: "temp", Op: OpGT, Val: fv(1000)},
		}, true},
		{"empty below min", []Pred{
			{Rel: "measures", Col: "temp", Op: OpLT, Val: fv(-1000)},
		}, true},
		{"open-ended GE", []Pred{
			{Rel: "measures", Col: "temp", Op: OpGE, Val: fv(10)},
		}, false},
		{"open-ended LE", []Pred{
			{Rel: "measures", Col: "temp", Op: OpLE, Val: fv(10)},
		}, false},
		{"open-ended covers everything", []Pred{
			{Rel: "measures", Col: "temp", Op: OpGE, Val: fv(-1000)},
		}, false},
		{"tightening duplicate bounds", []Pred{
			{Rel: "measures", Col: "temp", Op: OpGE, Val: fv(3)},
			{Rel: "measures", Col: "temp", Op: OpGE, Val: fv(8)},
			{Rel: "measures", Col: "temp", Op: OpLE, Val: fv(30)},
			{Rel: "measures", Col: "temp", Op: OpLE, Val: fv(12)},
		}, false},
		{"string range: no numeric index", []Pred{
			{Rel: "measures", Col: "grade", Op: OpGE, Val: sv("B")},
		}, false},
		{"string reversed BETWEEN", []Pred{
			{Rel: "measures", Col: "grade", Op: OpGE, Val: sv("D")},
			{Rel: "measures", Col: "grade", Op: OpLE, Val: sv("B")},
		}, true},
		{"string range verified on point-index candidates", []Pred{
			{Rel: "measures", Col: "grade", Op: OpEq, Val: sv("C")},
			{Rel: "measures", Col: "temp", Op: OpGE, Val: fv(4)},
		}, false},
		{"int and float ranges on different columns", []Pred{
			{Rel: "measures", Col: "score", Op: OpGE, Val: iv(4)},
			{Rel: "measures", Col: "temp", Op: OpLE, Val: fv(9)},
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := filterRows(e, m, tc.preds)
			want := scanRows(m, tc.preds)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("filterRows=%v want %v", got, want)
			}
			if tc.empty && len(got) != 0 {
				t.Fatalf("expected an empty result, got %d rows", len(got))
			}
			if !tc.empty && len(got) == 0 {
				t.Fatalf("edge case degenerated: oracle is empty too, case proves nothing")
			}
			if !sort.IntsAreSorted(got) {
				t.Fatal("rows not sorted")
			}
		})
	}

	// The same shapes must hold on a relation too small for the index
	// pool (pure scan path).
	small := rangeEdgeDB(indexMinRows / 2)
	se := NewExecutor(small)
	sm := small.Relation("measures")
	for _, tc := range cases {
		got := filterRows(se, sm, tc.preds)
		want := scanRows(sm, tc.preds)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("small relation, %s: filterRows=%v want %v", tc.name, got, want)
		}
	}
}

// TestExecuteReversedRange runs a reversed BETWEEN through the full
// Execute path: a well-formed query whose range is empty must return
// zero rows, not an error.
func TestExecuteReversedRange(t *testing.T) {
	db := rangeEdgeDB(210)
	q := &Query{
		From: []string{"measures"},
		Preds: []Pred{
			{Rel: "measures", Col: "temp", Op: OpGE, Val: relation.FloatVal(18)},
			{Rel: "measures", Col: "temp", Op: OpLE, Val: relation.FloatVal(2)},
		},
		Select: []ColRef{{Rel: "measures", Col: "id"}},
	}
	res, err := NewExecutor(db).ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Errorf("reversed range returned %d rows, want 0", res.NumRows())
	}
}

// TestRangePushdownAfterAppend verifies a range reads exactly its
// epoch's rows when rows are appended the way the αDB appends them: onto
// a copy-on-write clone of the relation, with an IndexDelta producing
// the next epoch's set.
func TestRangePushdownAfterAppend(t *testing.T) {
	db := pushdownDB(200)
	pool := index.NewIndexSet()
	e := NewExecutorWithIndexes(db, pool)
	items := db.Relation("items")
	preds := []Pred{{Rel: "items", Col: "score", Op: OpGE, Val: relation.IntVal(7)}}

	before := filterRows(e, items, preds)
	if want := scanRows(items, preds); !reflect.DeepEqual(before, want) {
		t.Fatalf("pre-append filterRows=%v want %v", before, want)
	}
	next := items.CloneForWrite(nil)
	delta := index.NewIndexDelta(pool, nil)
	for i := 0; i < 10; i++ {
		next.MustAppend(
			relation.IntVal(int64(1000+i)),
			relation.StringVal("epsilon"),
			relation.IntVal(int64(9)),
		)
		delta.NoteAppend(next, next.NumRows()-1)
	}
	db2 := db.CloneWith(map[string]*relation.Relation{"items": next})
	e2 := NewExecutorWithIndexes(db2, delta.MergeInto(pool))
	got := filterRows(e2, next, preds)
	want := scanRows(next, preds)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-append filterRows=%v want %v", got, want)
	}
	if len(got) != len(before)+10 {
		t.Fatalf("expected %d rows, got %d", len(before)+10, len(got))
	}
	// The pre-append view still answers from the pre-append rows.
	if again := filterRows(e, items, preds); !reflect.DeepEqual(again, before) {
		t.Fatalf("append leaked into the base view: %v want %v", again, before)
	}
}

func TestExecutePushdownJoin(t *testing.T) {
	db := pushdownDB(200)
	q := &Query{
		From:  []string{"items", "tags"},
		Joins: []Join{{LeftRel: "items", LeftCol: "id", RightRel: "tags", RightCol: "item_id"}},
		Preds: []Pred{
			{Rel: "items", Col: "cat", Op: OpEq, Val: relation.StringVal("alpha")},
			{Rel: "tags", Col: "tag", Op: OpEq, Val: relation.StringVal("tag0")},
		},
		Select:   []ColRef{{Rel: "items", Col: "id"}},
		Distinct: true,
	}
	res, err := NewExecutor(db).ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: items with cat=alpha (id%4==0) that carry tag0
	// (even ids with id%5==0 → id%10==0 among even rows).
	var want []string
	for i := 0; i < 200; i += 2 {
		if i%4 == 0 && i%5 == 0 {
			want = append(want, fmt.Sprintf("%d", i))
		}
	}
	got := res.Strings()
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pushdown join = %v want %v", got, want)
	}
}

// TestExecutorSharedPoolConcurrent runs queries from many goroutines
// against one executor sharing an index pool (the DiscoverBatch engine
// configuration); meaningful under -race.
func TestExecutorSharedPoolConcurrent(t *testing.T) {
	db := pushdownDB(200)
	pool := index.NewIndexSet()
	e := NewExecutorWithIndexes(db, pool)
	q := &Query{
		From:   []string{"items"},
		Preds:  []Pred{{Rel: "items", Col: "cat", Op: OpEq, Val: relation.StringVal("beta")}},
		Select: []ColRef{{Rel: "items", Col: "id"}},
	}
	want, err := e.ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := e.ExecuteCtx(context.Background(), q)
				if err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				if res.NumRows() != want.NumRows() {
					t.Errorf("rows %d want %d", res.NumRows(), want.NumRows())
					return
				}
			}
		}()
	}
	wg.Wait()
}
