package squid

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"

	"squid/internal/adb"
	"squid/internal/datagen"
	"squid/internal/engine"
	"squid/internal/trace"
)

// TestExecuteBuildsNoJoinIndexes is the heap_mb trap as a test, in two
// arms over the benchmark's three discovered plans, counted by the
// index_builds and view_rows counters of a traced execution.
//
// Through System.ExecuteContext the plans are answered from the αDB's
// row sets: executing them, before an InsertBatch into castinfo and
// after it, builds no index at all — not even the hash indexes of their
// point predicates (movie.title, country.name, the derived value
// columns), which the join pipeline needs — and no row of a derived
// view.
//
// Through the join pipeline alone, every execution builds for itself
// those point indexes — the epoch holds none, and an execution stores
// nothing — or, for a point predicate on a derived value, the rows of
// the view restricted to the value, which answer the predicate whole:
// so every call builds more than zero of one or the other, after the
// insert too.
// In both arms the epoch's resident set never changes size under an
// execution: a join uses an index that is resident and never creates
// one. No epoch holds an index over a derived relation: it is a view.
func TestExecuteBuildsNoJoinIndexes(t *testing.T) {
	arms := []struct {
		name       string
		execute    func(*System, context.Context, *Query) (*ExecResult, error)
		buildsNone bool
	}{
		{"system", (*System).ExecuteContext, true},
		{"join pipeline", unreduced, false},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			cfg := benchScale().IMDb
			g := datagen.GenerateIMDb(cfg)
			sys, err := Build(g.DB, DefaultBuildConfig())
			if err != nil {
				t.Fatal(err)
			}
			plans := discoveredPlans(t, sys, g)
			executeAll := func(when string) {
				t.Helper()
				ep := sys.alpha.Snapshot()
				resident := ep.Indexes.NumIndexes()
				for id, q := range plans {
					rec := trace.NewRecorder(0)
					root := rec.Root(trace.PhaseExecute, "")
					res, err := arm.execute(sys, trace.NewContext(context.Background(), root), q)
					root.End()
					if err != nil || res.NumRows() == 0 {
						t.Fatalf("%s, %s: empty result or error %v", when, id, err)
					}
					spans := rec.Finish("execute", id).JSON().Spans
					built := sumCounter(spans, trace.CounterIndexBuilds)
					if arm.buildsNone && built != 0 {
						t.Errorf("%s, %s: executing built %d indexes: the row sets answer every point predicate", when, id, built)
					} else if viewRows := sumCounter(spans, trace.CounterViewRows); arm.buildsNone && viewRows != 0 {
						t.Errorf("%s, %s: executing built %d rows of derived views: the row sets answer every derived filter", when, id, viewRows)
					} else if !arm.buildsNone && built == 0 && viewRows == 0 {
						t.Errorf("%s, %s: the join pipeline built no point-predicate index and no view row: the arm proves nothing", when, id)
					}
				}
				if sys.alpha.Snapshot() != ep {
					t.Fatalf("%s: the epoch moved under the test", when)
				}
				if after := ep.Indexes.NumIndexes(); after != resident {
					t.Errorf("%s: executing the plans took the resident set from %d to %d hash indexes", when, resident, after)
				}
				// A derived relation is a view: the epoch holds no index
				// over one.
				for _, info := range ep.Entities {
					for _, p := range info.Derived {
						for _, col := range []string{"entity_id", "value", "count"} {
							if ep.Indexes.ResidentIntHash(ep.CombinedDB().View(p.RelName).Schema, col) != nil {
								t.Errorf("%s: the epoch holds an index over %s.%s", when, p.RelName, col)
							}
						}
					}
				}
			}
			executeAll("before the insert")
			if err := sys.InsertBatchContext(context.Background(), insertBenchBatch(cfg, 0)); err != nil {
				t.Fatal(err)
			}
			executeAll("after the insert")
		})
	}
}

// sumCounter sums counter c over a span tree.
func sumCounter(spans []*trace.SpanJSON, c trace.Counter) int64 {
	var n int64
	for _, sp := range spans {
		n += sp.Counters[c.String()] + sumCounter(sp.Children, c)
	}
	return n
}

// TestDerivedViewRows executes hand-written blocks over a derived
// relation, which the engine reads as a view over its property's pair
// lists, and counts the rows the view built (view_rows on the scan
// stage): a point predicate on value builds that value's pair list and
// no other row, O(ψ); a block without one builds every row. A block that
// meets an INTERSECT branch on its From[0] row ids reads the ids of the
// whole view, so rows of two values never meet, and rows of one value
// meet themselves. Each answer is the one the nested loops over the
// whole view give.
func TestDerivedViewRows(t *testing.T) {
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 600, NumMovies: 250, NumCompany: 10})
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.AlphaDB().Entity("person").DerivedByAttr("movie:genre")
	values := p.DistinctValues()
	if len(values) < 2 {
		t.Fatal("fixture has fewer than two genres")
	}
	rel := p.RelName
	all := relationOf(sys.ExecutableDB(), rel).NumRows()
	block := func(v string) *Query {
		q := &Query{From: []string{rel}, Select: []engine.ColRef{{Rel: rel, Col: "entity_id"}, {Rel: rel, Col: "count"}}}
		if v != "" {
			q.Preds = []engine.Pred{{Rel: rel, Col: "value", Op: engine.OpEq, Val: StringVal(v)}}
		}
		return q
	}
	var builds int64
	execute := func(q *Query) (*ExecResult, int64) {
		t.Helper()
		rec := trace.NewRecorder(0)
		root := rec.Root(trace.PhaseExecute, "")
		res, err := sys.ExecuteContext(trace.NewContext(context.Background(), root), q)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		spans := rec.Finish("execute", rel).JSON().Spans
		builds = sumCounter(spans, trace.CounterIndexBuilds)
		return res, sumCounter(spans, trace.CounterViewRows)
	}
	for _, v := range append(values[:2:2], "") {
		q := block(v)
		res, built := execute(q)
		want := all
		if v != "" {
			want = p.EntityRowSetWithStrength(codesOf(p.LookupCode, v)[0], 1, trace.Span{}, false).Count()
		}
		if built != int64(want) || res.NumRows() != want {
			t.Errorf("value %q: the view built %d rows and returned %d, want the %d of its pair lists", v, built, res.NumRows(), want)
		}
		// The view holds the rows of its value only: the predicate is
		// applied, and no posting list is built over the view's rows.
		if builds != 0 {
			t.Errorf("value %q: the block built %d indexes over a view restricted to the value", v, builds)
		}
		if rows := nestedLoopRows(t, sys.ExecutableDB(), q); !reflect.DeepEqual(res.Rows, rows) {
			t.Errorf("value %q: %d rows, the nested loops %d", v, res.NumRows(), len(rows))
		}
	}
	for _, other := range values[:2] {
		q := block(values[0])
		q.Intersect = []*Query{block(other)}
		res, built := execute(q)
		want := p.EntityRowSetWithStrength(codesOf(p.LookupCode, values[0])[0], 1, trace.Span{}, false).Count()
		if other != values[0] {
			want = 0
		}
		if res.NumRows() != want || built < int64(all) {
			t.Errorf("%s meeting %s on rows: %d rows from %d built, want %d rows from the whole view", values[0], other, res.NumRows(), built, want)
		}
	}
}

// TestBenchmarkPlansReadRowSets: a traced execution of each of the
// benchmark's three plans, warm, is one reduce stage over the plan's
// filters — every row set a memo hit — a scan of the entity's candidate
// rows and the projection: no join, and no cell streamed by any stage.
func TestBenchmarkPlansReadRowSets(t *testing.T) {
	g := datagen.GenerateIMDb(benchScale().IMDb)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	for id, q := range discoveredPlans(t, sys, g) {
		if _, err := sys.ExecuteContext(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		rec := trace.NewRecorder(0)
		root := rec.Root(trace.PhaseExecute, "")
		res, err := sys.ExecuteContext(trace.NewContext(context.Background(), root), q)
		root.End()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		spans := rec.Finish("execute", id).JSON().Spans[0].Children
		var labels []string
		for _, sp := range spans {
			labels = append(labels, sp.Label)
			if sp.Counters["cells_streamed"] != 0 {
				t.Errorf("%s: stage %s streamed %d cells", id, sp.Label, sp.Counters["cells_streamed"])
			}
		}
		entity := q.From[0]
		if want := []string{"reduce:" + entity, "scan:" + entity, "project"}; !slices.Equal(labels, want) {
			t.Fatalf("%s: stages %v, want %v", id, labels, want)
		}
		reduce := spans[0]
		if n := reduce.Counters["filters"]; n == 0 || n != int64(len(reduce.Children)) {
			t.Errorf("%s: reduce lifted %d filters over %d rowset spans", id, n, len(reduce.Children))
		}
		for _, rs := range reduce.Children {
			if rs.Phase != trace.PhaseRowSet.String() || rs.Counters["cache_hits"] != 1 || rs.Counters["cells_streamed"] != 0 {
				t.Errorf("%s: %s %q %v, want a rowset span that hit its memo", id, rs.Phase, rs.Label, rs.Counters)
			}
		}
		if got := spans[2].Counters["rows"]; got != int64(res.NumRows()) || reduce.Counters["rows"] < got {
			t.Errorf("%s: reduce hands over %d rows, project returns %d of %d", id, reduce.Counters["rows"], got, res.NumRows())
		}
	}
}

// TestExecuteMatchesOutputNormalized: executing the plan of a discovery
// returns the discovery's output also when a filter's strength threshold
// is normalized by the entity's degree. No join of the plan expresses
// such a filter; the plan carries its row set as keys — dropped instead,
// the plan answered with every entity the remaining filters let through.
func TestExecuteMatchesOutputNormalized(t *testing.T) {
	g := datagen.GenerateIMDb(benchScale().IMDb)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.NormalizeAssociation = true
	sys.SetParams(params)
	d, err := sys.DiscoverContext(context.Background(), exampleNames(t, sys, g, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(d.Filters, func(f *Filter) bool { return f.NormUse }) {
		t.Fatal("no normalized filter was abduced: the test proves nothing")
	}
	res, err := sys.ExecuteContext(context.Background(), d.Plan())
	if err != nil {
		t.Fatal(err)
	}
	got, want := slices.Compact(res.Strings()), slices.Compact(slices.Clone(d.Output))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Execute(Plan()) returned %d distinct names, Output has %d", len(got), len(want))
	}
}

// relationOf returns the named relation of db, a view's every row
// built.
func relationOf(db *Database, name string) *Relation {
	if v := db.View(name); v != nil {
		return v.Rows(nil)
	}
	return db.Relation(name)
}

// nestedLoopRows evaluates a select-project-join plan, DISTINCT or not,
// the slow way: nested loops over the FROM relations in the order
// listed, Pred.Matches and Value.Equal on boxed cells read through
// Relation.Get — no index, no join order, no typed key, no comparator —
// then the executor's canonical order (row ids, From[0]'s first, the
// other relations' in name order) and first-seen DISTINCT.
func nestedLoopRows(t *testing.T, db *Database, q *Query) [][]Value {
	t.Helper()
	if q.HasAggregation() || len(q.Intersect) > 0 {
		t.Fatal("nestedLoopRows covers SPJ plans: this one groups or intersects")
	}
	pos := map[string]int{}
	rels := make([]*Relation, len(q.From))
	for i, name := range q.From {
		pos[name], rels[i] = i, relationOf(db, name)
	}
	ids := make([]int, len(q.From))
	cell := func(rel, col string) Value { return rels[pos[rel]].Get(ids[pos[rel]], col) }
	var tuples [][]int
	var walk func(depth int)
	walk = func(depth int) {
		if depth == len(q.From) {
			tuples = append(tuples, slices.Clone(ids))
			return
		}
	rows:
		for ids[depth] = 0; ids[depth] < rels[depth].NumRows(); ids[depth]++ {
			for _, p := range q.Preds {
				if pos[p.Rel] == depth && !p.Matches(cell(p.Rel, p.Col)) {
					continue rows
				}
			}
			for _, j := range q.Joins {
				if max(pos[j.LeftRel], pos[j.RightRel]) != depth {
					continue
				}
				l, r := cell(j.LeftRel, j.LeftCol), cell(j.RightRel, j.RightCol)
				if l.IsNull() || r.IsNull() || !l.Equal(r) {
					continue rows
				}
			}
			walk(depth + 1)
		}
	}
	walk(0)
	order := make([]int, len(q.From))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order[1:], func(a, b int) int { return cmp.Compare(q.From[a], q.From[b]) })
	slices.SortFunc(tuples, func(a, b []int) int {
		for _, p := range order {
			if a[p] != b[p] {
				return a[p] - b[p]
			}
		}
		return 0
	})
	var rows [][]Value
	for _, tup := range tuples {
		copy(ids, tup)
		row := make([]Value, len(q.Select))
		for i, s := range q.Select {
			row[i] = cell(s.Rel, s.Col)
		}
		if !q.Distinct || !slices.ContainsFunc(rows, func(r []Value) bool { return slices.EqualFunc(r, row, Value.Equal) }) {
			rows = append(rows, row)
		}
	}
	return rows
}

// TestPlansMatchNestedLoopAfterInserts executes the three plans of the
// benchmark's execute block in the state the block meets them — after 24
// insert batches of the benchmark's shape, so derived views are built
// from pair lists the batches bumped, hash indexes carry tails
// and castinfo has grown past what the plans were discovered on — and
// requires the rows, in order, that nested loops over the same epoch
// return. The scale is a small one at which the discovered plans keep
// the benchmark's shape, so that the nested loops finish.
func TestPlansMatchNestedLoopAfterInserts(t *testing.T) {
	cfg := datagen.IMDbConfig{Seed: 7, NumPersons: 1000, NumMovies: 400, NumCompany: 20}
	g := datagen.GenerateIMDb(cfg)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	plans := discoveredPlans(t, sys, g)
	before := sys.alpha.Snapshot()
	for k := 0; k < 24; k++ {
		if err := sys.InsertBatchContext(context.Background(), insertBenchBatch(cfg, k)); err != nil {
			t.Fatal(err)
		}
	}
	db := sys.ExecutableDB()
	derived := func(ep *adb.Epoch, rel string) *adb.DerivedProperty {
		for _, info := range ep.Entities {
			for _, p := range info.Derived {
				if p.RelName == rel {
					return p
				}
			}
		}
		return nil
	}
	bumped := 0
	for id, q := range plans {
		for _, p := range q.Preds {
			if p.Col == "count" && derived(sys.alpha.Snapshot(), p.Rel) != derived(before, p.Rel) {
				bumped++ // a batch cloned the property to bump its pairs
			}
		}
		res, err := sys.ExecuteContext(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		want := nestedLoopRows(t, db, q)
		if len(want) == 0 {
			t.Fatalf("%s: the nested loops return no row: the test proves nothing", id)
		}
		if !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("%s: Execute returns %d rows, the nested loops %d\n got %v\nwant %v", id, len(res.Rows), len(want), res.Rows, want)
		}
	}
	if bumped == 0 {
		t.Error("no derived property a plan ranges over was bumped by a batch: the test proves less than it says")
	}
}
