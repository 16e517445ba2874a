package squid

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/engine"
	"squid/internal/experiments"
	"squid/internal/metrics"
	"squid/internal/relation"
)

// unreduced executes q on the join pipeline alone, over the epoch and
// the index pool System.ExecuteContext would use: the reference every
// reduced execution is held to. It has the method expression's shape,
// so an arm of a test can hold either.
func unreduced(sys *System, ctx context.Context, q *Query) (*ExecResult, error) {
	ep := sys.alpha.Snapshot()
	return engine.NewExecutorWithIndexes(ep.CombinedDB(), ep.Indexes).ExecuteCtx(ctx, q)
}

// mutation is a plan a discovery did not write, derived from one it did.
type mutation struct {
	Name  string
	Query *Query
}

// planMutations returns q rewritten the ways the reducer must see
// through or leave alone: FROM and join sides in another order (still
// recognized), and one edit each that makes a group — or the block —
// something the five shapes do not spell: a predicate fewer or more, an
// operand of the wrong type, a value no dictionary holds, no DISTINCT, a
// GROUP BY, a SELECT from a joined relation, an INTERSECT branch, and a
// key list on the entity beside the filters.
func planMutations(db *Database, q *Query) []mutation {
	var out []mutation
	add := func(name string, edit func(m *Query)) {
		m := q.Clone()
		edit(m)
		out = append(out, mutation{name, m})
	}
	entity := q.From[0]
	pk := db.Relation(entity).PrimaryKey
	add("from-permuted", func(m *Query) { slices.Reverse(m.From[1:]) })
	add("join-sides-swapped", func(m *Query) {
		for i, j := range m.Joins {
			m.Joins[i] = engine.Join{LeftRel: j.RightRel, LeftCol: j.RightCol, RightRel: j.LeftRel, RightCol: j.LeftCol}
		}
	})
	first := func(match func(p engine.Pred) bool) int { return slices.IndexFunc(q.Preds, match) }
	if len(q.Preds) > 0 {
		add("pred-dropped", func(m *Query) { m.Preds = m.Preds[:len(m.Preds)-1] })
	}
	if i := first(func(p engine.Pred) bool { return p.Rel != entity }); i >= 0 {
		add("pred-extra-on-dimension", func(m *Query) { m.Preds = append(m.Preds, m.Preds[i]) })
	}
	if i := first(func(p engine.Pred) bool { return p.Col == "count" && p.Op == engine.OpGE && p.Val.IsInt() }); i >= 0 {
		add("count-ge-double", func(m *Query) { m.Preds[i].Val = FloatVal(float64(m.Preds[i].Val.Int())) })
	}
	if i := first(func(p engine.Pred) bool { return p.Op == engine.OpEq && p.Val.IsString() }); i >= 0 {
		add("value-eq-integer", func(m *Query) { m.Preds[i].Val = IntVal(5) })
		add("value-unknown", func(m *Query) { m.Preds[i].Val = StringVal("no such value") })
	}
	add("distinct-off", func(m *Query) { m.Distinct = false })
	add("group-by", func(m *Query) { m.GroupBy = []engine.ColRef{{Rel: entity, Col: pk}} })
	if len(q.From) > 1 {
		add("select-from-dimension", func(m *Query) {
			m.Select = []engine.ColRef{{Rel: m.From[1], Col: relationOf(db, m.From[1]).Columns()[0].Name}}
		})
	}
	add("intersect-branches", func(m *Query) {
		branch := q.Clone()
		branch.Intersect = nil
		if len(branch.Preds) > 1 {
			branch.Preds = branch.Preds[1:]
		}
		m.Intersect = append(m.Intersect, branch)
	})
	add("key-in", func(m *Query) {
		keys := db.Relation(entity).Column(pk)
		var vals []Value
		for row := 0; row < keys.Len(); row += 2 {
			vals = append(vals, keys.Get(row))
		}
		m.Preds = append(m.Preds, engine.Pred{Rel: entity, Col: pk, Op: engine.OpIn, Vals: vals})
	})
	return out
}

// examplePool draws example sets for every benchmark intent: |E| of 5
// and 15 sampled from its ground truth.
func examplePool(t *testing.T, db *Database, benches []benchqueries.Benchmark) [][]string {
	t.Helper()
	rng := rand.New(rand.NewSource(20190625))
	var sets [][]string
	for _, b := range benches {
		truth, err := benchqueries.GroundTruth(db, b)
		if err != nil {
			t.Fatalf("%s: %v", b.ID, err)
		}
		for _, k := range []int{5, 15} {
			if len(truth) > k {
				sets = append(sets, metrics.Sample(rng, truth, k))
			}
		}
	}
	return sets
}

// addNameTwins appends to every entity relation of db with an INTEGER
// key and a TEXT column up to n twins: each takes its first TEXT cell
// from one entity and every other cell, and the facts that name it,
// from another. Two entities then share a projected value while only
// one satisfies what the other does — what an INTERSECT that met on
// values instead of on entity rows answered wrongly.
func addNameTwins(db *Database, n int) {
	for _, name := range db.EntityRelations() {
		rel := db.Relation(name)
		pk, text := rel.ColumnIndex(rel.PrimaryKey), -1
		for i, c := range rel.Columns() {
			if c.Type == String {
				text = i
				break
			}
		}
		rows := rel.NumRows()
		if pk < 0 || rel.Columns()[pk].Type != Int || text < 0 || rows < 2*n {
			continue
		}
		next := int64(0)
		for r := range rows {
			next = max(next, rel.Row(r)[pk].Int()+1)
		}
		for i := range n {
			twin, like := rel.Row(rows-1-i), rel.Row(rows - 1 - i)[pk]
			twin[pk], twin[text] = IntVal(next+int64(i)), rel.Row(i)[text]
			rel.MustAppend(twin...)
			for _, factName := range db.RelationNames() {
				fact := db.Relation(factName)
				for _, fk := range fact.Foreign {
					if fk.RefRelation != name || db.Kind(factName) != relation.KindUnknown {
						continue
					}
					col := fact.ColumnIndex(fk.Column)
					for r := range fact.NumRows() {
						if row := fact.Row(r); row[col].Equal(like) {
							row[col] = twin[pk]
							fact.MustAppend(row...)
						}
					}
				}
			}
		}
	}
}

// TestExecuteReducedMatchesUnreduced is the independent check on the
// executor's reduce stage. Every discovery of a request pool over IMDb,
// DBLP, Adult and fuzzDB (the attribute-table shape, a relation under
// indexMinRows), each given entities whose names collide (addNameTwins)
// — default parameters, with disjunctions, with
// normalized strengths, whose filters a plan carries as a key list, and
// the optimistic QRE preset, whose plans carry the most filters —
// has its plan, and every planMutations rewrite of it, executed by
// System.ExecuteContext and by the join pipeline alone over the same epoch:
// the rows must be identical, order included, or the errors must read
// the same. Plans small enough are held to nested loops as well. The
// pool runs fresh, with the row-set memos emptied before every
// execution, and (IMDb) after a random ingest; the test fails unless
// blocks were answered wholly, partly and not at all from the row sets.
func TestExecuteReducedMatchesUnreduced(t *testing.T) {
	scale := experiments.TestScale()
	imdb := datagen.GenerateIMDb(scale.IMDb)
	dblp := datagen.GenerateDBLP(scale.DBLP)
	adult := datagen.GenerateAdult(scale.Adult)
	academics := fuzzDB()
	for _, db := range []*Database{imdb.DB, dblp.DB, adult.DB, academics} {
		addNameTwins(db, 12)
	}
	datasets := []struct {
		name   string
		db     *Database
		sets   [][]string
		ingest bool
	}{
		{"imdb", imdb.DB, examplePool(t, imdb.DB, benchqueries.IMDbBenchmarks(imdb)), true},
		{"dblp", dblp.DB, examplePool(t, dblp.DB, benchqueries.DBLPBenchmarks(dblp)), false},
		{"adult", adult.DB, examplePool(t, adult.DB, benchqueries.AdultBenchmarks(context.Background(), adult, 11)), false},
		{"academics", academics, fuzzExampleSets, false},
	}
	disjunctive, normalized := DefaultParams(), DefaultParams()
	disjunctive.MaxDisjunction = 3
	normalized.NormalizeAssociation = true

	// Under -short (the race run) every fourth example set of a pool.
	stride := 1
	if testing.Short() {
		stride = 4
	}
	var all, part, none uint64
	nested, nestedJoins := 0, 0
	for _, ds := range datasets {
		sys, err := Build(ds.db, DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		compare := func(at string, q *Query, cold bool) {
			t.Helper()
			if cold {
				sys.alpha.SelectivityCache().Invalidate()
			}
			got, err := sys.ExecuteContext(context.Background(), q)
			want, werr := unreduced(sys, context.Background(), q)
			if err != nil || werr != nil {
				if err == nil || werr == nil || err.Error() != werr.Error() {
					t.Errorf("%s: Execute answers error %v, the join pipeline %v", at, err, werr)
				}
				return
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("%s: Execute returns %d rows, the join pipeline %d\n got %v\nwant %v", at, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
			}
		}
		pass := func(state string, cold bool) {
			db := sys.ExecutableDB()
			for _, params := range []Params{DefaultParams(), disjunctive, normalized, QREParams()} {
				sys.SetParams(params)
				for i, set := range ds.sets {
					if i%stride != 0 {
						continue
					}
					d, err := sys.DiscoverContext(context.Background(), set)
					if err != nil {
						continue
					}
					plan := d.Plan()
					at := fmt.Sprintf("%s/%s/set %d", ds.name, state, i)
					compare(at, plan, cold)
					checkExecutedPlan(t, at, sys, d)
					if len(plan.Intersect) == 0 && nestedLoopSteps(db, plan) < 3_000_000 {
						nested++
						if len(plan.From) > 1 {
							nestedJoins++
						}
						res, err := sys.ExecuteContext(context.Background(), plan)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						if want := nestedLoopRows(t, db, plan); !reflect.DeepEqual(res.Rows, want) {
							t.Errorf("%s: Execute returns %d rows, the nested loops %d", at, len(res.Rows), len(want))
						}
					}
					for _, m := range planMutations(db, plan) {
						compare(at+"/"+m.Name, m.Query, cold)
					}
				}
			}
		}
		pass("fresh", false)
		pass("cold", true)
		if ds.ingest {
			randomIngest(t, sys, rand.New(rand.NewSource(3)), 6, nil)
			pass("ingested", false)
		}
		a, p, n := sys.ExecuteBlockMetrics()
		all, part, none = all+a, part+p, none+n
	}
	t.Logf("blocks answered from the row sets: %d wholly, %d partly, %d not at all; %d plans held to nested loops, %d of them joins", all, part, none, nested, nestedJoins)
	if all == 0 || part == 0 || none == 0 {
		t.Errorf("blocks answered from the row sets: %d wholly, %d partly, %d not at all — the test must see each", all, part, none)
	}
	if nestedJoins == 0 {
		t.Error("no joining plan was small enough for the nested loops: the test proves less than it says")
	}
}

// TestExecuteStoresNoRowSets pins who may grow a property's memo: a
// discovery, whose operands the data holds, and not an executed plan,
// whose bounds, θ and IN lists its client writes. A thousand plans the
// reduce stage answers wholly — each a range, a strength and a value
// list no plan before it had — leave the memos as the discoveries left
// them, entry for entry.
func TestExecuteStoresNoRowSets(t *testing.T) {
	g := datagen.GenerateIMDb(experiments.TestScale().IMDb)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range examplePool(t, g.DB, benchqueries.IMDbBenchmarks(g))[:8] {
		if d, err := sys.DiscoverContext(context.Background(), set); err == nil {
			if _, err := sys.ExecuteContext(context.Background(), d.Plan()); err != nil {
				t.Fatal(err)
			}
		}
	}
	cache := sys.alpha.SelectivityCache()
	entries := cache.Len()
	bytes, _ := cache.RowSetBytes()
	if entries == 0 {
		t.Fatal("the discoveries memoized nothing: the test proves nothing")
	}
	allBefore, _, _ := sys.ExecuteBlockMetrics()

	countries := sys.ExecutableDB().Relation("country").Column("name")
	const plans = 1000
	for i := 0; i < plans; i++ {
		// The countries the bits of i+1 pick: a list per plan.
		var names []Value
		for bit := 0; 1<<bit <= i+1; bit++ {
			if (i+1)>>bit&1 != 0 {
				names = append(names, countries.Get(bit))
			}
		}
		q := &Query{
			From: []string{"person", "country", "persontomovie_genre"},
			Joins: []engine.Join{
				{LeftRel: "person", LeftCol: "country_id", RightRel: "country", RightCol: "id"},
				{LeftRel: "person", LeftCol: "id", RightRel: "persontomovie_genre", RightCol: "entity_id"},
			},
			Preds: []engine.Pred{
				{Rel: "person", Col: "birth_year", Op: engine.OpGE, Val: FloatVal(1930 + float64(i)/plans)},
				{Rel: "person", Col: "birth_year", Op: engine.OpLE, Val: FloatVal(2000 + float64(i)/plans)},
				{Rel: "country", Col: "name", Op: engine.OpIn, Vals: names},
				{Rel: "persontomovie_genre", Col: "value", Op: engine.OpEq, Val: StringVal("Comedy")},
				{Rel: "persontomovie_genre", Col: "count", Op: engine.OpGE, Val: IntVal(int64(i + 1000))},
			},
			Select:   []engine.ColRef{{Rel: "person", Col: "name"}},
			Distinct: true,
		}
		if _, err := sys.ExecuteContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if all, _, _ := sys.ExecuteBlockMetrics(); all-allBefore != plans {
		t.Fatalf("the row sets answered %d of the %d plans wholly: the test proves less than it says", all-allBefore, plans)
	}
	after, _ := cache.RowSetBytes()
	if cache.Len() != entries || after != bytes {
		t.Errorf("executing %d plans took the memos from %d sets (%d bytes) to %d (%d): an executed plan must not store", plans, entries, bytes, cache.Len(), after)
	}
}

// nestedLoopSteps bounds what nestedLoopRows would spend on q: every row
// of From[0] against every row of each other relation.
func nestedLoopSteps(db *Database, q *Query) int {
	n := relationOf(db, q.From[0]).NumRows()
	steps := n
	for _, rel := range q.From[1:] {
		steps += n * relationOf(db, rel).NumRows()
	}
	return steps
}
