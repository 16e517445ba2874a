package squid

import (
	"cmp"
	"context"
	"reflect"
	"slices"
	"testing"

	"squid/internal/datagen"
	"squid/internal/index"
	"squid/internal/trace"
)

// TestExecuteBuildsNoJoinIndexes is the heap_mb trap as a test, in two
// arms over the benchmark's three discovered plans, counted by the
// index_builds counter of a traced execution.
//
// Through System.ExecuteContext the plans are answered from the αDB's
// row sets: executing them, before an InsertBatch into castinfo and
// after it, builds no index at all — not even the hash indexes of their
// point predicates (movie.title, country.name, the derived value
// columns), which the join pipeline needs.
//
// Through the join pipeline alone, every execution builds those point
// indexes for itself — the epoch holds none, and an execution stores
// nothing — so every call builds more than zero, after the insert too.
// In both arms the epoch's resident set never changes size under an
// execution: a join uses an index that is resident and never creates
// one. No epoch holds an index over a derived count column, whose cells
// an insert overwrites.
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
					built := indexBuilds(rec.Finish("execute", id).JSON().Spans)
					if arm.buildsNone && built != 0 {
						t.Errorf("%s, %s: executing built %d indexes: the row sets answer every point predicate", when, id, built)
					} else if !arm.buildsNone && built == 0 {
						t.Errorf("%s, %s: the join pipeline built no point-predicate index: the arm proves nothing", when, id)
					}
				}
				if sys.alpha.Snapshot() != ep {
					t.Fatalf("%s: the epoch moved under the test", when)
				}
				if after := ep.Indexes.NumIndexes(); after != resident {
					t.Errorf("%s: executing the plans took the resident set from %d to %d hash indexes", when, resident, after)
				}
				// An insert overwrites derived count cells in place: no
				// epoch may hold an index over that column.
				for _, name := range ep.DerivedDB.RelationNames() {
					if ep.Indexes.ResidentIntHash(ep.DerivedDB.Relation(name), "count") != nil {
						t.Errorf("%s: the epoch holds an index over %s.count", when, name)
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

// indexBuilds sums the index_builds counters of a span tree.
func indexBuilds(spans []*trace.SpanJSON) int64 {
	var n int64
	for _, sp := range spans {
		n += sp.Counters[trace.CounterIndexBuilds.String()] + indexBuilds(sp.Children)
	}
	return n
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

// TestInsertKeepsDerivedEntityIndex: a batch that bumps the counts of a
// derived relation and appends rows to it carries the relation's
// resident entity_id hash index into the next epoch — cloned on the
// writer's first write and maintained row by row — and the carried
// index answers every key as an index built fresh from the new epoch's
// relation does.
func TestInsertKeepsDerivedEntityIndex(t *testing.T) {
	cfg := benchScale().IMDb
	sys, err := Build(datagen.GenerateIMDb(cfg).DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	const relName = "persontomovie_genre"
	base := sys.alpha.Snapshot()
	rel := base.DerivedDB.Relation(relName)
	if rel == nil {
		t.Fatalf("no derived relation %q", relName)
	}
	if base.Indexes.ResidentIntHash(rel, "entity_id") == nil {
		t.Fatalf("%s.entity_id is not resident after the build", relName)
	}
	for k := 0; k < 3; k++ {
		if err := sys.InsertBatchContext(context.Background(), insertBenchBatch(cfg, k)); err != nil {
			t.Fatal(err)
		}
	}
	ep := sys.alpha.Snapshot()
	next := ep.DerivedDB.Relation(relName)
	if next == rel || next.NumRows() <= rel.NumRows() {
		t.Fatalf("the batches did not reach %s (%d rows before, %d after)", relName, rel.NumRows(), next.NumRows())
	}
	if ep.Indexes.NumIndexes() != base.Indexes.NumIndexes() {
		t.Errorf("the batches took the resident set from %d to %d indexes", base.Indexes.NumIndexes(), ep.Indexes.NumIndexes())
	}
	h := ep.Indexes.ResidentIntHash(next, "entity_id")
	if h == nil || h == base.Indexes.ResidentIntHash(rel, "entity_id") {
		t.Fatalf("%s.entity_id was not carried into the new epoch as the writer's clone", relName)
	}
	fresh := index.BuildIntHash(next, "entity_id")
	if h.NumKeys() != fresh.NumKeys() {
		t.Errorf("carried index has %d keys, a fresh one %d", h.NumKeys(), fresh.NumKeys())
	}
	ids := next.Column("entity_id")
	for r := 0; r < next.NumRows(); r++ {
		if got, want := slices.Concat(h.Rows(ids.Int64(r))), slices.Concat(fresh.Rows(ids.Int64(r))); !reflect.DeepEqual(got, want) {
			t.Fatalf("Rows(%d) = %v, a fresh index answers %v", ids.Int64(r), got, want)
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
	for i, name := range q.From {
		pos[name] = i
	}
	ids := make([]int, len(q.From))
	cell := func(rel, col string) Value { return db.Relation(rel).Get(ids[pos[rel]], col) }
	var tuples [][]int
	var walk func(depth int)
	walk = func(depth int) {
		if depth == len(q.From) {
			tuples = append(tuples, slices.Clone(ids))
			return
		}
	rows:
		for ids[depth] = 0; ids[depth] < db.Relation(q.From[depth]).NumRows(); ids[depth]++ {
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
// insert batches of the benchmark's shape, so derived count columns are
// read from chunks the batches overwrote, hash indexes carry tails
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
	before := sys.ExecutableDB()
	for k := 0; k < 24; k++ {
		if err := sys.InsertBatchContext(context.Background(), insertBenchBatch(cfg, k)); err != nil {
			t.Fatal(err)
		}
	}
	db := sys.ExecutableDB()
	bumped := 0
	for id, q := range plans {
		for _, p := range q.Preds {
			if p.Col == "count" && db.Relation(p.Rel).Column(p.Col) != before.Relation(p.Rel).Column(p.Col) {
				bumped++ // a batch cloned the column to overwrite its cells
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
		t.Error("no count column a plan ranges over was overwritten by a batch: the test proves less than it says")
	}
}
