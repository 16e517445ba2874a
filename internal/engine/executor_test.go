package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"squid/internal/relation"
	"squid/internal/trace"
)

// keyedPair builds l(k lt) and r(k rt) holding the given cells, each
// padded with NULL keys past indexMinRows when large is set, so both the
// scanned and the indexed paths see them.
func keyedPair(lt, rt relation.ColType, lv, rv relation.Value, large bool) *relation.Database {
	db := relation.NewDatabase("pair")
	for _, side := range []struct {
		name string
		typ  relation.ColType
		val  relation.Value
	}{{"l", lt, lv}, {"r", rt, rv}} {
		rel := relation.New(side.name, relation.Col("k", side.typ), relation.Col("x", relation.Int))
		rel.MustAppend(side.val, relation.IntVal(1))
		for i := 0; large && i < indexMinRows; i++ {
			rel.MustAppend(relation.Null, relation.IntVal(1))
		}
		db.AddRelation(rel)
	}
	return db
}

// TestJoinEqualityIsValueEqual pins the one equality of joins: a tree
// join and a cycle condition both compare under Value.Equal. INTEGER 5
// does not join TEXT '5', INTEGER 1000000 joins DOUBLE 1e6 (whose
// display string is "1e+06"), and NULL joins nothing, NULL included.
func TestJoinEqualityIsValueEqual(t *testing.T) {
	cases := []struct {
		name   string
		lt, rt relation.ColType
		lv, rv relation.Value
		rows   int
	}{
		{"INTEGER 5 vs TEXT '5'", relation.Int, relation.String, relation.IntVal(5), relation.StringVal("5"), 0},
		{"INTEGER 1000000 vs DOUBLE 1e6", relation.Int, relation.Float, relation.IntVal(1000000), relation.FloatVal(1e6), 1},
		{"DOUBLE -0 vs INTEGER 0", relation.Float, relation.Int, relation.FloatVal(negZero()), relation.IntVal(0), 1},
		{"TEXT vs TEXT across dictionaries", relation.String, relation.String, relation.StringVal("x"), relation.StringVal("x"), 1},
		{"NULL vs NULL", relation.Int, relation.Int, relation.Null, relation.Null, 0},
	}
	for _, tc := range cases {
		for _, large := range []bool{false, true} {
			db := keyedPair(tc.lt, tc.rt, tc.lv, tc.rv, large)
			tree := &Query{
				From:   []string{"l", "r"},
				Joins:  []Join{{"l", "k", "r", "k"}},
				Select: []ColRef{{"l", "x"}},
			}
			// The cycle form joins on x first (every row pairs with every
			// row), leaving k = k as the filter between joined relations.
			cycle := tree.Clone()
			cycle.Joins = []Join{{"l", "x", "r", "x"}, {"l", "k", "r", "k"}}
			for name, q := range map[string]*Query{"tree": tree, "cycle": cycle} {
				if got := checkDifferential(t, db, q); len(got) != tc.rows {
					t.Errorf("%s, %s join, large=%v: %d rows, want %d", tc.name, name, large, len(got), tc.rows)
				}
			}
		}
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestTupleKeysDoNotCollide pins the tuple keys behind DISTINCT,
// INTERSECT, TupleSet and GROUP BY: a separator byte inside a value
// cannot move the boundary between two values, and SQL NULL is not the
// string 'NULL'.
func TestTupleKeysDoNotCollide(t *testing.T) {
	db := relation.NewDatabase("keys")
	r := relation.New("t", relation.Col("a", relation.String), relation.Col("b", relation.String))
	r.MustAppend(relation.StringVal("x\x1fy"), relation.StringVal("z"))
	r.MustAppend(relation.StringVal("x"), relation.StringVal("y\x1fz"))
	r.MustAppend(relation.Null, relation.StringVal("z"))
	r.MustAppend(relation.StringVal("NULL"), relation.StringVal("z"))
	db.AddRelation(r)
	sel := []ColRef{{"t", "a"}, {"t", "b"}}
	distinct := &Query{From: []string{"t"}, Select: sel, Distinct: true}
	grouped := &Query{From: []string{"t"}, Select: sel, GroupBy: sel}
	intersected := &Query{From: []string{"t"}, Select: sel, Intersect: []*Query{{
		From:   []string{"t"},
		Select: sel,
		Preds:  []Pred{{Rel: "t", Col: "b", Op: OpEq, Val: relation.StringVal("y\x1fz")}},
	}}}
	for name, tc := range map[string]struct {
		q    *Query
		rows int
	}{"DISTINCT": {distinct, 4}, "GROUP BY": {grouped, 4}, "INTERSECT": {intersected, 1}} {
		res, err := NewExecutor(db).ExecuteCtx(context.Background(), tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != tc.rows {
			t.Errorf("%s: %d rows, want %d: %v", name, res.NumRows(), tc.rows, res.Rows)
		}
		if want := referenceExecute(db, tc.q); len(want) != tc.rows {
			t.Fatalf("%s: the reference returns %d rows, want %d", name, len(want), tc.rows)
		}
	}
	res, err := NewExecutor(db).ExecuteCtx(context.Background(), &Query{From: []string{"t"}, Select: sel})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.TupleSet()); n != 4 {
		t.Errorf("TupleSet has %d keys for 4 distinct rows", n)
	}
}

// TestDistinctTextBothArms holds DISTINCT and GROUP BY over one TEXT
// column to the nested-loop reference on both sides of
// seenBitsPerTuple: a dictionary of 6,000 values under a handful of
// tuples (the map), under a thousand (the bitmap, firstByCode), and with
// a HAVING that needs counts (the map at any size). Values repeat, NULLs
// among them, and the first of each must survive in row order.
func TestDistinctTextBothArms(t *testing.T) {
	const values = 6000
	db := relation.NewDatabase("distinct")
	r := relation.New("t", relation.Col("k", relation.Int), relation.Col("s", relation.String))
	for i := 0; i < values; i++ {
		r.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("s%d", i)))
	}
	// 1,200 more rows over 320 of those values, three times each, and a
	// NULL every fifth row.
	for i := 0; i < 1200; i++ {
		v := relation.StringVal(fmt.Sprintf("s%d", i*7919%400))
		if i%5 == 0 {
			v = relation.Null
		}
		r.MustAppend(relation.IntVal(int64(values+i)), v)
	}
	db.AddRelation(r)
	sel := []ColRef{{"t", "s"}}
	from := func(k int) []Pred { return []Pred{{Rel: "t", Col: "k", Op: OpGE, Val: relation.IntVal(int64(k))}} }
	for _, tc := range []struct {
		name string
		q    *Query
		rows int
	}{
		{"map", &Query{From: []string{"t"}, Preds: from(values + 1188), Select: sel, Distinct: true}, 11},
		{"bitmap", &Query{From: []string{"t"}, Preds: from(values - 100), Select: sel, Distinct: true}, 421},
		{"bitmap, GROUP BY", &Query{From: []string{"t"}, Preds: from(values), Select: sel, GroupBy: sel}, 321},
		{"map, HAVING", &Query{From: []string{"t"}, Preds: from(values + 200), Select: sel, GroupBy: sel, HavingCountGE: 3}, 161},
	} {
		n := len(referenceExecute(db, &Query{From: tc.q.From, Preds: tc.q.Preds, Select: sel}))
		if bitmap := values+1 <= seenBitsPerTuple*n && tc.q.HavingCountGE <= 1; bitmap != strings.HasPrefix(tc.name, "bitmap") {
			t.Fatalf("%s: %d tuples of a dictionary of %d do not take that arm", tc.name, n, values)
		}
		if got := checkDifferential(t, db, tc.q); len(got) != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.name, len(got), tc.rows)
		}
	}
}

// cancelAfter is a context that reports cancellation from its n-th
// Err() call on: a deterministic way to cancel in the middle of a join.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCancelInsideHighFanOutJoin cancels in the middle of a join whose
// handful of probe keys each emit tens of thousands of rows — the shape
// of a join on castinfo.role_id — and bounds what the join emits after
// the cancel. Polling per probe tuple alone never looks at the context
// here: there are five.
func TestCancelInsideHighFanOutJoin(t *testing.T) {
	const roles, fan = 5, 20000
	db := relation.NewDatabase("fan")
	role := relation.New("role", relation.Col("id", relation.Int))
	for i := 0; i < roles; i++ {
		role.MustAppend(relation.IntVal(int64(i)))
	}
	cast := relation.New("cast", relation.Col("role_id", relation.Int))
	for i := 0; i < roles*fan; i++ {
		cast.MustAppend(relation.IntVal(int64(i % roles)))
	}
	db.AddRelation(role)
	db.AddRelation(cast)
	q := &Query{
		From:   []string{"role", "cast"},
		Joins:  []Join{{"role", "id", "cast", "role_id"}},
		Select: []ColRef{{"cast", "role_id"}},
	}
	for _, warm := range []bool{false, true} {
		ex := NewExecutor(db)
		if warm {
			// With the index resident, one probe emits a whole role's rows.
			ex = NewExecutorWithIndexes(db, prebuiltIndexes(db))
		}
		// The first Err() calls are the checks before the scan and before
		// the join; the fifth falls inside the join.
		ctx := &cancelAfter{Context: context.Background(), n: 5}
		rec := trace.NewRecorder(0)
		root := rec.Root(trace.PhaseExecute, "test")
		_, err := ex.ExecuteCtx(trace.NewContext(ctx, root), q)
		root.End()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("prebuilt=%v: err = %v, want context.Canceled", warm, err)
		}
		emitted := int64(-1)
		for _, sp := range rec.Finish("execute", "test").Spans {
			if sp.Label == "join:cast" {
				emitted = sp.Counters[trace.CounterRows.String()]
			}
		}
		// Two polls pass inside the join before the canceling one, and
		// a poll comes every ctxCheckRows rows read or emitted.
		if emitted < 0 || emitted > 4*ctxCheckRows {
			t.Errorf("prebuilt=%v: join emitted %d rows before honouring the cancel, want at most %d", warm, emitted, 4*ctxCheckRows)
		}
	}
}

// TestStageSpansFollowExecutionOrder pins what a traced execute shows:
// the stage vocabulary, emitted in the order the stages ran — which is
// the order the estimates chose, not FROM order — each scan and join
// with its estimate next to its rows and the cells it read without an
// index: a join that streamed items.id and one that probed the resident
// index on it carry the same estimate, and only cells_streamed tells
// them apart.
func TestStageSpansFollowExecutionOrder(t *testing.T) {
	db := pushdownDB(200)
	q := &Query{
		From:    []string{"items", "tags"},
		Joins:   []Join{{"items", "id", "tags", "item_id"}},
		Preds:   []Pred{{Rel: "tags", Col: "tag", Op: OpEq, Val: relation.StringVal("tag0")}},
		Select:  []ColRef{{"items", "id"}},
		GroupBy: []ColRef{{"items", "cat"}},
	}
	for _, tc := range []struct {
		name     string
		ex       *Executor
		streamed int64 // cells of items.id the join reads
	}{
		{"fresh pool", NewExecutor(db), 200},
		{"prebuilt indexes", NewExecutorWithIndexes(db, prebuiltIndexes(db)), 0},
	} {
		rec := trace.NewRecorder(0)
		root := rec.Root(trace.PhaseExecute, "test")
		res, err := tc.ex.ExecuteCtx(trace.NewContext(context.Background(), root), q)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		counters := map[string]map[string]int64{}
		tr := rec.Finish("execute", "test")
		// The rendering /debug/traces and ?trace=1 serve keeps that order.
		if s := tr.Structure(); strings.Index(s, "scan:tags") > strings.Index(s, "join:items") ||
			strings.Index(s, "join:items") > strings.Index(s, "aggregate") {
			t.Errorf("%s: rendered trace lists the stages out of execution order:\n%s", tc.name, s)
		}
		for _, sp := range tr.Spans {
			if sp.Phase == trace.PhaseStage {
				got = append(got, sp.Label)
				counters[sp.Label] = sp.Counters
			}
		}
		// tags carries the point predicate, so it anchors; items joins in.
		if want := "scan:tags join:items aggregate project"; strings.Join(got, " ") != want {
			t.Fatalf("%s: stage spans %v, want %q", tc.name, got, want)
		}
		// The scan verified a posting list: it read no column, and the
		// block built the list's string index, which no set holds.
		if c := counters["scan:tags"]; c["est_rows"] != 20 || c["rows"] != 20 || c["cells_streamed"] != 0 || c["index_builds"] != 1 {
			t.Errorf("%s: scan:tags counters %v, want est_rows=20 rows=20 index_builds=1 and no cells_streamed", tc.name, c)
		}
		if c := counters["join:items"]; c["est_rows"] != 200 || c["rows"] != 20 || c["cells_streamed"] != tc.streamed {
			t.Errorf("%s: join:items counters %v, want est_rows=200 rows=20 cells_streamed=%d", tc.name, c, tc.streamed)
		}
		if c := counters["project"]; c["rows"] != int64(res.NumRows()) {
			t.Errorf("%s: project counters %v, want rows=%d", tc.name, c, res.NumRows())
		}
	}
}

// TestCancelInsideStreamThatMatchesNothing cancels in the middle of a
// million-cell stream none of whose keys the table holds: no tuple is
// emitted, so only the per-block check can notice, and it does within
// two blocks of the cancel.
func TestCancelInsideStreamThatMatchesNothing(t *testing.T) {
	const cells = 1_000_000
	db := relation.NewDatabase("miss")
	one := relation.New("one", relation.Col("id", relation.Int))
	one.MustAppend(relation.IntVal(-1))
	facts := relation.New("facts", relation.Col("one_id", relation.Int))
	for i := 0; i < cells; i++ {
		facts.MustAppend(relation.IntVal(int64(i)))
	}
	db.AddRelation(one)
	db.AddRelation(facts)
	q := &Query{
		From:   []string{"one", "facts"},
		Joins:  []Join{{"one", "id", "facts", "one_id"}},
		Select: []ColRef{{"facts", "one_id"}},
	}
	// Err() calls one and two precede the scan and the join (the build
	// over one tuple is below a poll); the third lets the first block
	// through, the fourth is the cancel.
	ctx := &cancelAfter{Context: context.Background(), n: 4}
	rec := trace.NewRecorder(0)
	root := rec.Root(trace.PhaseExecute, "test")
	_, err := NewExecutor(db).ExecuteCtx(trace.NewContext(ctx, root), q)
	root.End()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, sp := range rec.Finish("execute", "test").Spans {
		if sp.Label != "join:facts" {
			continue
		}
		if got := sp.Counters["cells_streamed"]; got <= 0 || got > 2*ctxCheckRows {
			t.Errorf("the join streamed %d cells before honouring the cancel, want at most %d", got, 2*ctxCheckRows)
		}
		return
	}
	t.Fatal("no join:facts stage span")
}
