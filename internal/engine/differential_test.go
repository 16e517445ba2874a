package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"squid/internal/index"
	"squid/internal/relation"
)

// referenceExecute evaluates q by nested loops over the FROM relations
// in the order listed: no index, no join ordering, no hashing. The
// tuples are then put in the executor's canonical order with a plain
// sort of their row ids — From[0]'s first, the other relations' in name
// order. Equality is Value.Equal (NULL never joins); DISTINCT,
// INTERSECT by value and GROUP BY compare whole tuples by linear search.
func referenceExecute(db *relation.Database, q *Query) [][]relation.Value {
	budget := math.MaxInt
	rows, _ := referenceWithin(db, q, &budget)
	return rows
}

// referenceMeets is the rule under which an INTERSECT branch meets its
// block on From[0]'s rows rather than on projected values: one From[0],
// no aggregation on either side, no branch of the branch's own.
func referenceMeets(q, sub *Query) bool {
	return sub.From[0] == q.From[0] && !q.HasAggregation() && !sub.HasAggregation() && len(sub.Intersect) == 0
}

// referenceRelations resolves q's FROM names in db, a view's every row
// built.
func referenceRelations(db *relation.Database, q *Query) map[string]*relation.Relation {
	rels := make(map[string]*relation.Relation, len(q.From))
	for _, name := range q.From {
		rels[name] = db.Relation(name)
		if v := db.View(name); v != nil {
			rels[name] = v.Rows(nil)
		}
	}
	return rels
}

// referenceTuples binds q's FROM relations by nested loops in the order
// listed and returns the row-id tuples that satisfy its predicates and
// joins, less those whose From[0] row a branch meeting q on rows holds
// in none of its own tuples; ok is false when the budget ran out first.
func referenceTuples(db *relation.Database, q *Query, budget *int) (tuples [][]int, ok bool) {
	spend := func(n int) bool {
		*budget -= n
		return *budget >= 0
	}
	pos, rels := map[string]int{}, referenceRelations(db, q)
	for i, name := range q.From {
		pos[name] = i
	}
	ids := make([]int, len(q.From))
	cell := func(rel, col string) relation.Value { return rels[rel].Get(ids[pos[rel]], col) }
	// holds checks what binding From[depth] decides: its predicates and
	// the joins between it and a relation bound before it.
	holds := func(depth int) bool {
		for _, p := range q.Preds {
			if pos[p.Rel] == depth && !p.Matches(cell(p.Rel, p.Col)) {
				return false
			}
		}
		for _, j := range q.Joins {
			lp, rp := pos[j.LeftRel], pos[j.RightRel]
			if max(lp, rp) != depth {
				continue
			}
			l, r := cell(j.LeftRel, j.LeftCol), cell(j.RightRel, j.RightCol)
			if l.IsNull() || r.IsNull() || !l.Equal(r) {
				return false
			}
		}
		return true
	}
	var walk func(depth int)
	walk = func(depth int) {
		if depth == len(q.From) {
			tuples = append(tuples, slices.Clone(ids))
			return
		}
		for row := 0; row < rels[q.From[depth]].NumRows() && spend(1); row++ {
			if ids[depth] = row; holds(depth) {
				walk(depth + 1)
			}
		}
	}
	walk(0)
	if *budget < 0 {
		return nil, false
	}
	for _, sub := range q.Intersect {
		if !referenceMeets(q, sub) {
			continue
		}
		held, ok := referenceTuples(db, sub, budget)
		if !ok || !spend(len(tuples)*len(held)) {
			return nil, false
		}
		tuples = slices.DeleteFunc(tuples, func(t []int) bool {
			return !slices.ContainsFunc(held, func(h []int) bool { return h[0] == t[0] })
		})
	}
	return tuples, true
}

// referenceWithin is referenceExecute on a budget of steps — a row a
// loop binds, a tuple a linear search passes — for callers that do not
// choose their queries (FuzzExecutePlan): ok is false when the budget
// ran out first.
func referenceWithin(db *relation.Database, q *Query, budget *int) (rows [][]relation.Value, ok bool) {
	spend := func(n int) bool {
		*budget -= n
		return *budget >= 0
	}
	tuples, ok := referenceTuples(db, q, budget)
	if !ok {
		return nil, false
	}
	pos, rels := map[string]int{}, referenceRelations(db, q)
	for i, name := range q.From {
		pos[name] = i
	}
	ids := make([]int, len(q.From))
	cell := func(rel, col string) relation.Value { return rels[rel].Get(ids[pos[rel]], col) }
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

	type group struct {
		key, row []relation.Value
		count    int
	}
	var groups []*group
	for _, t := range tuples {
		copy(ids, t)
		row := make([]relation.Value, len(q.Select))
		for i, s := range q.Select {
			row[i] = cell(s.Rel, s.Col)
		}
		if !q.HasAggregation() {
			rows = append(rows, row)
			continue
		}
		key := make([]relation.Value, len(q.GroupBy))
		for i, g := range q.GroupBy {
			key[i] = cell(g.Rel, g.Col)
		}
		if !spend(len(groups)) {
			return nil, false
		}
		k := slices.IndexFunc(groups, func(g *group) bool { return tupleEqual(g.key, key) })
		if k < 0 {
			k = len(groups)
			groups = append(groups, &group{key: key, row: row})
		}
		groups[k].count++
	}
	for _, g := range groups {
		if g.count >= q.HavingCountGE {
			rows = append(rows, g.row)
		}
	}
	if q.Distinct {
		var out [][]relation.Value
		for _, row := range rows {
			if !spend(len(out)) {
				return nil, false
			}
			if !containsTuple(out, row) {
				out = append(out, row)
			}
		}
		rows = out
	}
	for _, sub := range q.Intersect {
		if referenceMeets(q, sub) {
			continue
		}
		other, ok := referenceWithin(db, sub, budget)
		if !ok || !spend(len(rows)*len(other)) {
			return nil, false
		}
		var out [][]relation.Value
		for _, row := range rows {
			if containsTuple(other, row) {
				out = append(out, row)
			}
		}
		rows = out
	}
	return rows, true
}

func tupleEqual(a, b []relation.Value) bool {
	return slices.EqualFunc(a, b, relation.Value.Equal)
}

func containsTuple(rows [][]relation.Value, row []relation.Value) bool {
	return slices.ContainsFunc(rows, func(r []relation.Value) bool { return tupleEqual(r, row) })
}

// prebuiltIndexes returns a set holding a hash index on every integer
// column: the other end of the residency spectrum from an empty set.
func prebuiltIndexes(db *relation.Database) *index.IndexSet {
	pool := index.NewIndexSet()
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		for _, c := range rel.Columns() {
			if c.Type == relation.Int {
				pool.AdoptIntHash(name, c.Name, index.BuildIntHash(rel, c.Name))
			}
		}
	}
	return pool
}

// permutations calls fn with every permutation of xs (in place; fn must
// not keep the slice).
func permutations[T any](xs []T, fn func([]T)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(xs) {
			fn(xs)
			return
		}
		for i := k; i < len(xs); i++ {
			xs[k], xs[i] = xs[i], xs[k]
			rec(k + 1)
			xs[k], xs[i] = xs[i], xs[k]
		}
	}
	rec(0)
}

// checkDifferential runs q in every form that must not matter — each
// permutation of From that keeps From[0], each permutation of Joins,
// on a fresh index pool and on a fully prebuilt one — and requires Rows
// identical to the nested-loop reference every time. It returns the
// reference rows.
func checkDifferential(t *testing.T, db *relation.Database, q *Query) [][]relation.Value {
	t.Helper()
	want := referenceExecute(db, q)
	warm := NewExecutorWithIndexes(db, prebuiltIndexes(db))
	v := q.Clone()
	permutations(v.From[1:], func([]string) {
		permutations(v.Joins, func([]Join) {
			for _, ex := range []*Executor{NewExecutor(db), warm} {
				got, err := ex.ExecuteCtx(context.Background(), v)
				if err != nil {
					t.Fatalf("%s: %v", describe(v), err)
				}
				if len(got.Rows) != len(want) || len(want) > 0 && !reflect.DeepEqual(got.Rows, want) {
					t.Fatalf("%s (prebuilt indexes: %v)\n got %v\nwant %v", describe(v), ex == warm, got.Rows, want)
				}
			}
		})
	})
	return want
}

func describe(q *Query) string {
	s := fmt.Sprintf("FROM %v JOIN %v WHERE %v SELECT %v distinct=%v GROUP BY %v HAVING %d",
		q.From, q.Joins, q.Preds, q.Select, q.Distinct, q.GroupBy, q.HavingCountGE)
	for _, sub := range q.Intersect {
		s += " INTERSECT (" + describe(sub) + ")"
	}
	return s
}

// genColumns is the schema every generated relation has: join columns
// of each type (k INTEGER, f DOUBLE, s TEXT) with NULLs and duplicate
// keys, and predicate columns (v INTEGER, c TEXT).
var genColumns = []string{"id", "k", "f", "s", "v", "c"}

// genSizes puts relations on both sides of indexMinRows.
var genSizes = []int{9, 17, indexMinRows - 1, indexMinRows, 90, 140}

func genDatabase(rng *rand.Rand, nrel int) *relation.Database {
	db := relation.NewDatabase("gen")
	orNull := func(v relation.Value) relation.Value {
		if rng.Intn(8) == 0 {
			return relation.Null
		}
		return v
	}
	for i := 0; i < nrel; i++ {
		r := relation.New(fmt.Sprintf("r%d", i),
			relation.Col("id", relation.Int),
			relation.Col("k", relation.Int),
			relation.Col("f", relation.Float),
			relation.Col("s", relation.String),
			relation.Col("v", relation.Int),
			relation.Col("c", relation.String),
		)
		// Key domains grow with the relation, so a large one still has
		// selective keys and the joins stay enumerable.
		n := genSizes[rng.Intn(len(genSizes))]
		dom := 6 + n/4
		for row := 0; row < n; row++ {
			f := float64(rng.Intn(dom))
			if rng.Intn(4) == 0 {
				f += 0.5 // a DOUBLE no INTEGER equals
			}
			r.MustAppend(
				relation.IntVal(int64(row)),
				orNull(relation.IntVal(int64(rng.Intn(dom)))),
				orNull(relation.FloatVal(f)),
				orNull(relation.StringVal(fmt.Sprintf("s%d", rng.Intn(dom)))),
				orNull(relation.IntVal(int64(rng.Intn(10)))),
				relation.StringVal(string(rune('a'+rng.Intn(4)))),
			)
		}
		db.AddRelation(r)
	}
	return db
}

func genPreds(rng *rand.Rand, from []string) []Pred {
	iv := func(n int) relation.Value { return relation.IntVal(int64(rng.Intn(n))) }
	cat := func() relation.Value { return relation.StringVal(string(rune('a' + rng.Intn(5)))) }
	var preds []Pred
	for _, rel := range from {
		switch rng.Intn(14) {
		case 0: // point, INTEGER: an equality, or an IN with a repeated key
			v := iv(8)
			if v.Int()%2 == 0 {
				preds = append(preds, Pred{Rel: rel, Col: "k", Op: OpIn, Vals: []relation.Value{v, relation.IntVal(v.Int() + 1), v}})
			} else {
				preds = append(preds, Pred{Rel: rel, Col: "k", Op: OpEq, Val: v})
			}
		case 1: // point, TEXT
			preds = append(preds, Pred{Rel: rel, Col: "c", Op: OpEq, Val: cat()})
		case 2: // IN, with a repeated value
			v := cat()
			preds = append(preds, Pred{Rel: rel, Col: "c", Op: OpIn, Vals: []relation.Value{v, cat(), v}})
		case 3: // range
			preds = append(preds, Pred{Rel: rel, Col: "v", Op: OpGE, Val: iv(6)})
		case 4: // BETWEEN, reversed one time in three
			lo, hi := int64(rng.Intn(5)), int64(5+rng.Intn(5))
			if rng.Intn(3) == 0 {
				lo, hi = hi, lo
			}
			preds = append(preds,
				Pred{Rel: rel, Col: "v", Op: OpGE, Val: relation.IntVal(lo)},
				Pred{Rel: rel, Col: "v", Op: OpLE, Val: relation.IntVal(hi)})
		case 5: // strict range on the DOUBLE, next to a point
			preds = append(preds,
				Pred{Rel: rel, Col: "f", Op: OpGT, Val: relation.FloatVal(float64(rng.Intn(6)))},
				Pred{Rel: rel, Col: "c", Op: OpEq, Val: cat()})
		}
	}
	return preds
}

// genQuery draws a query over db's nrel relations: a random spanning
// tree of joins over every pairing of column types (TEXT against a
// number included, which joins nothing), sometimes an extra condition
// closing a cycle, predicates of every shape, and DISTINCT, GROUP
// BY/HAVING or an INTERSECT branch.
func genQuery(rng *rand.Rand, nrel int) *Query {
	q := &Query{}
	for _, i := range rng.Perm(nrel) {
		q.From = append(q.From, fmt.Sprintf("r%d", i))
	}
	pairs := [][2]string{{"id", "k"}, {"k", "k"}, {"k", "f"}, {"f", "f"}, {"s", "s"}, {"id", "k"}, {"k", "id"}}
	join := func(a, b string) Join {
		p := pairs[rng.Intn(len(pairs))]
		if rng.Intn(40) == 0 {
			p = [2]string{"s", "k"}
		}
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		return Join{LeftRel: a, LeftCol: p[0], RightRel: b, RightCol: p[1]}
	}
	for i := 1; i < nrel; i++ {
		q.Joins = append(q.Joins, join(q.From[i], q.From[rng.Intn(i)]))
	}
	if rng.Intn(3) == 0 {
		a := rng.Intn(nrel)
		q.Joins = append(q.Joins, join(q.From[a], q.From[(a+1+rng.Intn(nrel-1))%nrel]))
	}
	q.Preds = genPreds(rng, q.From)
	col := func() ColRef {
		return ColRef{Rel: q.From[rng.Intn(nrel)], Col: genColumns[rng.Intn(len(genColumns))]}
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		q.Select = append(q.Select, col())
	}
	switch rng.Intn(4) {
	case 0:
		q.Distinct = true
	case 1:
		q.GroupBy = []ColRef{col()}
		if rng.Intn(2) == 0 {
			q.GroupBy = append(q.GroupBy, col())
		}
		q.HavingCountGE = rng.Intn(4)
	case 2:
		// The branch keeps half the predicates and adds one of its own,
		// so the intersection neither empties nor passes everything.
		sub := q.Clone()
		sub.Preds = append(sub.Preds[len(sub.Preds)/2:],
			Pred{Rel: q.From[0], Col: "v", Op: OpGE, Val: relation.IntVal(int64(rng.Intn(5)))})
		q.Intersect = []*Query{sub}
		q.Distinct = rng.Intn(2) == 0
	}
	return q
}

// TestDifferentialGenerated checks the executor against the nested-loop
// reference on generated databases and queries, in every From and Joins
// permutation and both index-residency states (see checkDifferential).
func TestDifferentialGenerated(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 24
	}
	nonEmpty := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		// Five relations with a cycle are 24 × 120 × 2 executions of one
		// query: most trials stay at three and four.
		nrel := []int{3, 4, 3, 4, 3, 5}[trial%6]
		db := genDatabase(rng, nrel)
		for k := 0; k < 3; k++ {
			if len(checkDifferential(t, db, genQuery(rng, nrel))) > 0 {
				nonEmpty++
			}
		}
	}
	t.Logf("%d of %d generated queries returned rows", nonEmpty, 3*trials)
	if nonEmpty < trials {
		t.Fatalf("only %d of %d generated queries returned rows: the generator degenerated", nonEmpty, 3*trials)
	}
}

// kernelShape is one database aimed at the block kernels of streamJoin
// and at the typed comparators, in the schema of genColumns so that
// genQuery and checkDifferential apply to it unchanged: r0 streams past
// two blocks, r1 is the side a join hashes, r2 sits above indexMinRows
// with INTEGER cells around 2^53.
type kernelShape struct {
	name string
	// key draws an INTEGER join key; hit says whether it is one the
	// small side holds.
	key func(rng *rand.Rand, hit bool) int64
	// oneDict makes r0.s and r1.s share a dictionary, so TEXT ⋈ TEXT
	// compares codes without translating them.
	oneDict bool
}

// kernelRows is r0's size: two whole blocks and a short third.
const kernelRows = 2*ctxCheckRows + 900

var kernelShapes = []kernelShape{
	{name: "dense keys, two dictionaries", key: func(rng *rand.Rand, hit bool) int64 {
		// Even keys in [100, 160) are present: the span takes a bitmap,
		// the odd ones pass the range test and fail the bit.
		k := 100 + 2*int64(rng.Intn(30))
		if !hit {
			k = 90 + int64(rng.Intn(80)) | 1
		}
		return k
	}},
	{name: "sparse keys, one dictionary", oneDict: true, key: func(rng *rand.Rand, hit bool) int64 {
		// A key every thousand: no bitmap, range test and hash only.
		k := 1000 * int64(rng.Intn(30))
		if !hit {
			k += 500
		}
		return k
	}},
	{name: "negative keys", key: func(rng *rand.Rand, hit bool) int64 {
		k := -10 - 3*int64(rng.Intn(20))
		if !hit {
			k = -80 + int64(rng.Intn(90))*3 + 1
		}
		return k
	}},
	{name: "keys at the ends of int64, one dictionary", oneDict: true, key: func(rng *rand.Rand, hit bool) int64 {
		// The span from MinInt64 to MaxInt64 fits no int64.
		ends := []int64{math.MinInt64, math.MaxInt64, 0, -1}
		if !hit {
			ends = []int64{math.MinInt64 + 1, math.MaxInt64 - 1, 1 << 40, -(1 << 40)}
		}
		return ends[rng.Intn(len(ends))]
	}},
}

// genKernelDatabase builds the three relations of a shape. Every block
// of r0 has a match on its first and on its last row, the short last
// block included; NULL keys sit on both sides; f carries -0, NaN and
// the integral DOUBLEs that equal k; v of r2 straddles 2^53.
func genKernelDatabase(rng *rand.Rand, sh kernelShape) *relation.Database {
	db := relation.NewDatabase("kernel")
	orNull := func(v relation.Value) relation.Value {
		if rng.Intn(8) == 0 {
			return relation.Null
		}
		return v
	}
	planted := map[int]bool{0: true, kernelRows - 1: true}
	for b := ctxCheckRows; b < kernelRows; b += ctxCheckRows {
		planted[b-1], planted[b] = true, true
	}
	big := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, -(1<<53 + 1), 3, 0}
	for i, n := range []int{kernelRows, 30, 140} {
		r := relation.New(fmt.Sprintf("r%d", i),
			relation.Col("id", relation.Int),
			relation.Col("k", relation.Int),
			relation.Col("f", relation.Float),
			relation.Col("s", relation.String),
			relation.Col("v", relation.Int),
			relation.Col("c", relation.String),
		)
		for row := 0; row < n; row++ {
			// The small sides hold only present keys; r0 holds one in
			// eight, and always where a match is planted.
			hit := i > 0 || planted[row] || rng.Intn(8) == 0
			k := sh.key(rng, hit)
			f := float64(sh.key(rng, hit)) // INTEGER ⋈ DOUBLE joins these to k
			switch rng.Intn(6) {
			case 0:
				f = negZero()
			case 1:
				f = math.NaN()
			case 2:
				f += 0.5
			}
			kv, fv, sv := relation.IntVal(k), relation.FloatVal(f), relation.StringVal(fmt.Sprintf("s%d", k))
			if !planted[row] {
				kv, fv, sv = orNull(kv), orNull(fv), orNull(sv)
			}
			v := int64(rng.Intn(10))
			if i == 2 {
				v = big[rng.Intn(len(big))]
			}
			r.MustAppend(relation.IntVal(int64(row)), kv, fv, sv,
				orNull(relation.IntVal(v)), relation.StringVal(string(rune('a'+rng.Intn(4)))))
		}
		db.AddRelation(r)
	}
	if sh.oneDict {
		// r1.s re-encoded over r0.s's dictionary.
		r0, r1 := db.Relation("r0"), db.Relation("r1")
		dict, old := r0.Column("s").Dict(), r1.Column("s")
		codes := make([]int32, r1.NumRows())
		for row := range codes {
			codes[row] = relation.NoCode
			if !old.IsNull(row) {
				codes[row] = dict.Intern(old.Str(row))
			}
		}
		cols := slices.Clone(r1.Columns())
		cols[r1.ColumnIndex("s")] = relation.RestoreStringColumn("s", codes, dict, old.RawNulls())
		db = db.CloneWith(map[string]*relation.Relation{"r1": relation.Restore("r1", "", nil, cols, r1.NumRows())})
	}
	return db
}

// kernelQueries are the queries every shape answers: r1 ⋈ r0 over every
// pairing of key types, streamed whole and through a candidate list;
// a three-way join whose tuples outnumber r2, so r2 is hashed and the
// tuples stream; and every operator over INTEGER cells around 2^53 with
// INTEGER and DOUBLE operands, and over TEXT.
func kernelQueries() []*Query {
	var qs []*Query
	sel := []ColRef{{"r0", "id"}, {"r1", "id"}}
	for i, p := range [][2]string{{"k", "k"}, {"id", "k"}, {"k", "f"}, {"f", "k"}, {"f", "f"}, {"s", "s"}} {
		q := &Query{From: []string{"r1", "r0"}, Joins: []Join{{"r1", p[0], "r0", p[1]}}, Select: sel}
		if i%2 == 1 {
			q.From = []string{"r0", "r1"}
		}
		qs = append(qs, q)
		// The point predicate hands r0 over as a candidate list; the
		// range is verified on the cells whose key is present.
		c := q.Clone()
		c.Preds = []Pred{
			{Rel: "r0", Col: "c", Op: OpEq, Val: relation.StringVal("a")},
			{Rel: "r0", Col: "v", Op: OpGE, Val: relation.IntVal(int64(i))},
		}
		qs = append(qs, c)
	}
	qs = append(qs, &Query{
		From:     []string{"r1", "r0", "r2"},
		Joins:    []Join{{"r1", "k", "r0", "k"}, {"r0", "c", "r2", "c"}},
		Preds:    []Pred{{Rel: "r0", Col: "v", Op: OpLE, Val: relation.IntVal(1)}, {Rel: "r2", Col: "id", Op: OpLT, Val: relation.IntVal(70)}},
		Select:   []ColRef{{"r2", "s"}},
		Distinct: true,
	})
	operands := []relation.Value{
		relation.IntVal(1<<53 + 1), relation.FloatVal(1 << 53), relation.FloatVal(2.5), relation.IntVal(3),
		relation.FloatVal(3), relation.Null, relation.StringVal("b"),
	}
	for _, op := range []Op{OpEq, OpGE, OpLE, OpGT, OpLT, OpIn} {
		for _, val := range operands {
			col := "v"
			if val.IsString() {
				col = "c"
			}
			p := Pred{Rel: "r2", Col: col, Op: op, Val: val}
			if op == OpIn {
				p = Pred{Rel: "r2", Col: col, Op: op, Vals: []relation.Value{val, relation.IntVal(0), relation.FloatVal(-(1<<53 + 1))}}
			}
			// Alone (a scan, or an index and a verification) and as the
			// predicates of a joined relation.
			qs = append(qs,
				&Query{From: []string{"r2"}, Preds: []Pred{p}, Select: []ColRef{{"r2", "id"}}},
				&Query{From: []string{"r1", "r2"}, Joins: []Join{{"r1", "id", "r2", "id"}}, Preds: []Pred{p}, Select: []ColRef{{"r2", "v"}, {"r2", "c"}}, GroupBy: []ColRef{{"r2", "c"}}})
		}
	}
	return qs
}

// TestDifferentialKernels feeds the shapes the block kernels and the
// typed comparators were written for to the same differential check as
// the generated databases. (Not genQuery's queries: the reference's
// DISTINCT compares with Value.Equal and keeps every NaN apart, the
// executor's tuple key folds them, and these databases hold NaN.)
func TestDifferentialKernels(t *testing.T) {
	shapes := kernelShapes
	if testing.Short() {
		shapes = shapes[1:3] // no bitmap: sparse and negative keys
	}
	for i, sh := range shapes {
		db := genKernelDatabase(rand.New(rand.NewSource(int64(2200+i))), sh)
		nonEmpty := 0
		queries := kernelQueries()
		for _, q := range queries {
			if len(checkDifferential(t, db, q)) > 0 {
				nonEmpty++
			}
		}
		t.Logf("%s: %d of %d queries returned rows", sh.name, nonEmpty, len(queries))
		if nonEmpty < len(queries)/2 {
			t.Errorf("%s: only %d of %d queries returned rows: the shape degenerated", sh.name, nonEmpty, len(queries))
		}
	}
}

// TestTextJoinAcrossDictionaries checks a TEXT join between columns of
// two dictionaries, whose left side translates its codes into the right
// dictionary's through one table a join: every cell's key, met once
// and again, equals a per-cell Dict.Lookup of its string, and the join
// — both sides hashed, streamed and probed through candidate lists —
// answers what the nested-loop reference does. Each side holds values
// the other lacks, repeated values and NULLs.
func TestTextJoinAcrossDictionaries(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	db := relation.NewDatabase("xdict")
	for i, n := range []int{kernelRows, 60} {
		r := relation.New(fmt.Sprintf("r%d", i),
			relation.Col("id", relation.Int),
			relation.Col("s", relation.String),
			relation.Col("c", relation.String),
		)
		for row := 0; row < n; row++ {
			// Both sides draw from v0..v39; r0 alone holds a0..a199, r1
			// alone b0..b9.
			s := relation.StringVal(fmt.Sprintf("v%d", rng.Intn(40)))
			switch rng.Intn(8) {
			case 0:
				s = relation.Null
			case 1, 2:
				s = relation.StringVal(fmt.Sprintf("%c%d", 'a'+i, rng.Intn(200/(1+19*i))))
			}
			r.MustAppend(relation.IntVal(int64(row)), s, relation.StringVal(string(rune('a'+rng.Intn(4)))))
		}
		db.AddRelation(r)
	}
	l, r := db.Relation("r0").Column("s"), db.Relation("r1").Column("s")
	if l.Dict() == r.Dict() {
		t.Fatal("the fixture's columns share a dictionary")
	}
	lk, _ := keyCols(l, r)
	for pass := 0; pass < 2; pass++ {
		for row := 0; row < l.Len(); row++ {
			var want int64
			ok := !l.IsNull(row)
			if ok {
				var code int32
				code, ok = r.Dict().Lookup(l.Str(row))
				want = int64(code)
			}
			if got, gok := lk.key(row); gok != ok || ok && got != want {
				t.Fatalf("pass %d, row %d (%v): key = %d, %v; the per-cell lookup gives %d, %v", pass, row, l.Get(row), got, gok, want, ok)
			}
		}
	}
	sel := []ColRef{{"r0", "id"}, {"r1", "id"}}
	for _, q := range []*Query{
		{From: []string{"r0", "r1"}, Joins: []Join{{"r0", "s", "r1", "s"}}, Select: sel},
		{From: []string{"r1", "r0"}, Joins: []Join{{"r1", "s", "r0", "s"}}, Select: sel},
		{From: []string{"r0", "r1"}, Joins: []Join{{"r0", "s", "r1", "s"}}, Select: sel,
			Preds: []Pred{{Rel: "r0", Col: "c", Op: OpEq, Val: relation.StringVal("a")}}},
		{From: []string{"r1", "r0"}, Joins: []Join{{"r1", "s", "r0", "s"}}, Select: sel,
			Preds: []Pred{{Rel: "r1", Col: "c", Op: OpEq, Val: relation.StringVal("b")}}},
	} {
		if len(checkDifferential(t, db, q)) == 0 {
			t.Errorf("%s: no rows, the fixture degenerated", describe(q))
		}
	}
}
