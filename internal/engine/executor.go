package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"

	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/trace"
)

// Executor runs logical queries against a database.
//
// Ordering. Every FROM relation gets an estimate of its surviving rows:
// the exact count for a relation small enough to scan, otherwise the
// shortest posting list among its point predicates (= and IN, read from
// a resident hash index or counted in one pass over the column). A
// range does not narrow the estimate. Execution anchors at
// the smallest estimate and extends greedily along connected joins
// towards the smallest relation next, so a discovered plan runs as a
// chain of key lookups whatever order it lists its relations in.
//
// Joins compare typed keys under Value.Equal's rules — int64 for
// INTEGER⋈INTEGER, float64 when a DOUBLE is involved, strings for
// TEXT⋈TEXT; TEXT never equals a number and NULL never joins. A join
// probes a hash index when the resident set holds one on the new
// relation's join column, and never builds one: otherwise it hashes the
// smaller side in a transient table and streams the other side's column
// once, a block of typed keys at a time read straight from the column's
// storage (keyBlocks), each key tested against the table's key range
// and — when the range spans at most 64 values a key — a bitmap over
// it, so that the hash table, the NULL bitmap and the predicates are
// touched only for the cells whose key is present (streamJoin).
//
// Predicates are bound once per execution to their column's storage and
// a typed comparator (rowPred) and verified per candidate row, a
// relation's cheapest first, boxing no Value; they answer what
// Pred.Matches answers, which stays the reference the tests compare
// against.
//
// Row order is part of the contract: after the joins the tuples are
// sorted by row id, From[0]'s first and then the other relations' in
// name order, so Result.Rows, DISTINCT's first-seen row and GROUP BY's
// representative depend neither on the join order chosen, nor on which
// indexes happen to be resident, nor on the order the query lists the
// relations it joins to From[0].
//
// A Reducer, when one is attached, sees every SPJ block after it is
// bound and before it is planned, and may answer part of it — filters
// on From[0] that something outside the engine holds precomputed — as a
// set of From[0]'s rows: the block that remains is what gets planned,
// with the set as one more predicate on From[0] and as its access path.
//
// The executor only reads its resident index set, which is fixed once
// its epoch is published: a point predicate on a column the set does not
// index gets a posting list built for its block alone (rowPred.postings),
// a view's rows are built for the block that reads it once the Reducer
// has taken its part (buildViews), and nothing an execution builds
// is stored, so one executor can serve many goroutines.
type Executor struct {
	db     *relation.Database
	idx    *index.IndexSet
	reduce Reducer
}

// Reduction is an SPJ block with some of its conditions on From[0]
// already answered.
type Reduction struct {
	// Rest is the block that remains: the same From[0], Select and
	// Distinct, without the relations, joins and predicates that Rows
	// answers.
	Rest *Query
	// Rows holds the rows of From[0] that satisfy what was taken out of
	// the block. The executor only reads it.
	Rows *index.RowSet
}

// Reducer takes conditions out of one bound SPJ block (q.Intersect is
// not its business: each branch is handed over on its own). It returns
// nil when it takes nothing out. The tuples Rest produces over Rows, in
// the executor's row order, must project to the Result.Rows of q: what
// is removed may only be semi-joins of a DISTINCT block that selects
// nothing from them. An error is a canceled context's.
type Reducer func(ctx context.Context, q *Query) (*Reduction, error)

// indexMinRows is the relation size below which a scan beats building or
// probing a hash index.
const indexMinRows = 64

// NewExecutor creates an executor over db with no resident index.
func NewExecutor(db *relation.Database) *Executor {
	return NewExecutorWithIndexes(db, index.NewIndexSet())
}

// NewExecutorWithIndexes creates an executor over db that reads the
// resident hash indexes idx (an αDB epoch hands over its own set, which
// matches the epoch's relations).
func NewExecutorWithIndexes(db *relation.Database, idx *index.IndexSet) *Executor {
	return &Executor{db: db, idx: idx}
}

// WithReducer attaches r to the executor and returns it. Without one an
// executor is the plain join pipeline.
func (e *Executor) WithReducer(r Reducer) *Executor {
	e.reduce = r
	return e
}

// ctxCheckRows is how many units of work — tuples probed, tuples
// emitted, rows hashed — a join, filter or aggregation does between
// cancellation checks, and the size of the blocks a stream join reads
// its column in, one check a block: frequent enough that a pathological
// query aborts promptly, rare enough to stay off the profile.
const ctxCheckRows = 4096

// poller spreads ctx.Err() checks over a stage's work. It counts what a
// stage emits as well as what it reads, so one probe key with an
// unbounded run of matches cannot outrun a cancel.
type poller struct {
	ctx context.Context
	n   int
}

// poll counts one unit of work and checks when a check is due.
func (p *poller) poll() error {
	if p.n++; p.n%ctxCheckRows != 0 {
		return nil
	}
	return p.err()
}

func (p *poller) err() error {
	if err := p.ctx.Err(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// ExecuteCtx runs the query and returns its projected tuples. DISTINCT
// and intersection are applied after projection, except that a branch
// meeting q on rows (meetsOnRows) restricts q's From[0] before q runs.
// ctx.Err() is consulted between pipeline stages, between intersect
// branches, and every few thousand rows read or emitted inside joins and
// aggregation, so a canceled or deadline-expired context aborts even a
// pathological query (and releases whatever lock the caller executes
// under) instead of running to completion. The returned error wraps
// ctx's error; match it with errors.Is.
func (e *Executor) ExecuteCtx(ctx context.Context, q *Query) (*Result, error) {
	sp := trace.SpanFrom(ctx)
	// Each intersect branch executes under its own stage span, so its
	// scan/join stages nest there instead of mixing with the parent's.
	branch := func(i int) (context.Context, trace.Span) {
		if !sp.Active() {
			return ctx, trace.Span{}
		}
		isp := sp.Child(trace.PhaseStage, "intersect:"+strconv.Itoa(i))
		return trace.NewContext(ctx, isp), isp
	}
	var within *index.RowSet
	for i, sub := range q.Intersect {
		if !meetsOnRows(q, sub) {
			continue
		}
		bctx, isp := branch(i)
		rows, err := e.anchorRows(bctx, sub)
		isp.End()
		if err != nil {
			return nil, err
		}
		if within == nil {
			within = rows
		} else {
			within.AndWith(rows)
		}
	}
	res, err := e.executeBlock(ctx, q, within)
	if err != nil {
		return nil, err
	}
	for i, sub := range q.Intersect {
		if meetsOnRows(q, sub) {
			continue
		}
		bctx, isp := branch(i)
		subRes, err := e.ExecuteCtx(bctx, sub)
		isp.End()
		if err != nil {
			return nil, err
		}
		res.intersect(subRes)
	}
	return res, nil
}

// meetsOnRows reports whether INTERSECT branch sub meets q on the row
// ids of From[0] instead of on projected values: both blocks start at
// one relation, neither aggregates and sub intersects nothing itself.
// Such a branch admits a set of that relation's rows — one entity row
// under several aliases in the printed SQL — and q keeps only the tuples
// whose From[0] row every such branch admits. Two entities that share a
// projected value then stay apart.
func meetsOnRows(q, sub *Query) bool {
	return len(q.From) > 0 && len(sub.From) > 0 && sub.From[0] == q.From[0] &&
		!q.HasAggregation() && !sub.HasAggregation() && len(sub.Intersect) == 0
}

// anchorRows runs the joins and predicates of block q and returns the
// rows of its From[0] that some joined tuple holds.
func (e *Executor) anchorRows(ctx context.Context, q *Query) (*index.RowSet, error) {
	_, t, err := e.join(ctx, q, nil, true)
	if err != nil {
		return nil, err
	}
	rows := make([]int, 0, t.len())
	for i := range t.len() {
		// Tuples come sorted by From[0]'s row first.
		if r := t.at(i)[0]; len(rows) == 0 || rows[len(rows)-1] != r {
			rows = append(rows, r)
		}
	}
	return index.RowSetFromSorted(rows), nil
}

// stage begins the span of one executor stage (scan:<rel>, join:<rel>,
// cycle-join, aggregate, project; a Reducer begins its own,
// reduce:<rel>). Untraced, it neither builds the label nor touches a
// recorder.
func stage(sp trace.Span, kind, rel string) trace.Span {
	if !sp.Active() {
		return trace.Span{}
	}
	return sp.Child(trace.PhaseStage, kind+rel)
}

// boundJoin is a join condition with both sides resolved.
type boundJoin struct{ l, r boundCol }

// plan is a query resolved against the database: every name looked up
// once, predicates bound to their columns and grouped by FROM position.
type plan struct {
	q       *Query
	pos     map[string]int
	rels    []*relation.Relation
	preds   [][]rowPred
	joins   []boundJoin
	groupBy []boundCol
	sel     []boundCol
}

// boundCol is a column reference resolved to its FROM position.
type boundCol struct {
	pos int
	col *relation.Column
}

// bind resolves q against the database, a FROM name through built when
// that holds it: the rows of a view built for the block. A view not yet
// built binds to its schema, which holds no row.
func (e *Executor) bind(q *Query, built map[string]*relation.Relation) (*plan, error) {
	switch {
	case len(q.From) == 0:
		return nil, fmt.Errorf("engine: query has no FROM relations")
	case len(q.Select) == 0:
		return nil, fmt.Errorf("engine: query selects no column")
	case q.HavingCountGE < 0:
		return nil, fmt.Errorf("engine: HAVING count(*) >= %d is negative", q.HavingCountGE)
	case q.HavingCountGE != 0 && len(q.GroupBy) == 0:
		return nil, fmt.Errorf("engine: HAVING count(*) >= %d without GROUP BY", q.HavingCountGE)
	}
	pl := &plan{
		q:     q,
		pos:   make(map[string]int, len(q.From)),
		rels:  make([]*relation.Relation, len(q.From)),
		preds: make([][]rowPred, len(q.From)),
	}
	for i, name := range q.From {
		r := built[name]
		if r == nil {
			r = e.db.Relation(name)
		}
		if v := e.db.View(name); r == nil && v != nil {
			r = v.Schema
		}
		if r == nil {
			return nil, fmt.Errorf("engine: unknown relation %q", name)
		}
		if _, dup := pl.pos[name]; dup {
			return nil, fmt.Errorf("engine: relation %q appears twice in FROM (use Intersect for self-joins)", name)
		}
		pl.pos[name] = i
		pl.rels[i] = r
	}
	for _, p := range q.Preds {
		i, ok := pl.pos[p.Rel]
		if !ok {
			return nil, fmt.Errorf("engine: predicate on %q which is not in FROM", p.Rel)
		}
		col := pl.rels[i].Column(p.Col)
		if col == nil {
			return nil, fmt.Errorf("engine: predicate on unknown column %s.%s", p.Rel, p.Col)
		}
		rp, err := bindPred(p, col)
		if err != nil {
			return nil, err
		}
		pl.preds[i] = append(pl.preds[i], rp)
	}
	for _, preds := range pl.preds {
		slices.SortStableFunc(preds, func(a, b rowPred) int { return a.cost() - b.cost() })
	}
	for _, j := range q.Joins {
		l, err := pl.col("join", ColRef{j.LeftRel, j.LeftCol})
		if err != nil {
			return nil, err
		}
		r, err := pl.col("join", ColRef{j.RightRel, j.RightCol})
		if err != nil {
			return nil, err
		}
		pl.joins = append(pl.joins, boundJoin{l, r})
	}
	for _, g := range q.GroupBy {
		c, err := pl.col("GROUP BY", g)
		if err != nil {
			return nil, err
		}
		pl.groupBy = append(pl.groupBy, c)
	}
	for _, s := range q.Select {
		c, err := pl.col("SELECT", s)
		if err != nil {
			return nil, err
		}
		pl.sel = append(pl.sel, c)
	}
	return pl, nil
}

// col resolves a column reference of the named clause.
func (pl *plan) col(clause string, c ColRef) (boundCol, error) {
	pos, ok := pl.pos[c.Rel]
	if !ok {
		return boundCol{}, fmt.Errorf("engine: %s references %q which is not in FROM", clause, c.Rel)
	}
	col := pl.rels[pos].Column(c.Col)
	if col == nil {
		return boundCol{}, fmt.Errorf("engine: %s on unknown column %s", clause, c)
	}
	return boundCol{pos, col}, nil
}

// rowPred is a predicate bound once to its column's storage and to a
// typed comparator, so verifying a row boxes no Value: it answers what
// Pred.Matches answers on the cell, NULL cells never matching.
//
//   - INTEGER and DOUBLE cells compare as float64, as Value.Less and
//     Value.Equal compare numbers — except an INTEGER cell against an
//     integer operand of = or IN, which compares exactly: keys holds
//     those operands sorted (a plan may carry a filter's whole row set
//     as keys, sqlgen.ToEngineQuery) and flts the DOUBLE ones.
//   - TEXT = and IN compare dictionary codes, resolved once per
//     execution; a TEXT range compares the dictionary's strings.
//   - An operand no cell can equal (another type, NULL, a string the
//     dictionary never interned) is dropped from = and IN; a range over
//     a NULL operand is the constant Value.Less makes it.
//
// The rows a Reducer answered with are a predicate too, on no column:
// membership in the set (member; every other field is zero).
type rowPred struct {
	Pred
	col    *relation.Column
	nulls  []bool
	member *index.RowSet

	ints  []int64
	cells []float64
	codes []int32
	strs  []string // the dictionary's values, for a TEXT range

	keys []int64   // INTEGER = and IN: the integer operands, sorted
	flts []float64 // numeric = and IN: the operands compared as float64
	want []int32   // TEXT = and IN: the operands' codes
	num  float64   // numeric range: the operand
	// applied marks the = or IN a view was built for (buildViews): every
	// row of the relation satisfies it.
	applied bool
	// fixed is what a range over a NULL operand answers on every
	// non-NULL cell: +1 matches, -1 does not, 0 is any other predicate.
	fixed int8
}

// bindPred binds p to col. A range between TEXT and a number has no
// answer (Value.Less does not order them) and is an error.
func bindPred(p Pred, col *relation.Column) (rowPred, error) {
	rp := rowPred{Pred: p, col: col, nulls: col.RawNulls()}
	text := col.Type == relation.String
	switch col.Type {
	case relation.Int:
		rp.ints = col.RawInts()
	case relation.Float:
		rp.cells = col.RawFloats()
	default:
		rp.codes = col.RawCodes()
	}
	if p.Op != OpEq && p.Op != OpIn {
		switch {
		case p.Val.IsNull():
			// Value.Less: NULL sorts before every cell.
			rp.fixed = -1
			if p.Op == OpGE || p.Op == OpGT {
				rp.fixed = 1
			}
		case p.Val.IsString() != text:
			return rp, fmt.Errorf("engine: predicate %s compares a %s column with %s", p, col.Type, p.Val.SQLLiteral())
		case text:
			rp.strs = col.Dict().Values()
		default:
			rp.num = p.Val.Float()
		}
		return rp, nil
	}
	vals := p.Vals
	if p.Op == OpEq {
		vals = []relation.Value{p.Val}
	}
	if col.Type == relation.Int {
		rp.keys = make([]int64, 0, len(vals))
	}
	for _, v := range vals {
		switch {
		case v.IsNull() || v.IsString() != text:
		case text:
			if code, ok := col.Dict().Lookup(v.Str()); ok {
				rp.want = append(rp.want, code)
			}
		case v.IsInt() && col.Type == relation.Int:
			rp.keys = append(rp.keys, v.Int())
		default:
			rp.flts = append(rp.flts, v.Float()) // 3.0 equals 3
		}
	}
	slices.Sort(rp.keys)
	return rp, nil
}

// cost ranks a bound predicate by what one verification costs; a
// relation's predicates run cheapest first.
func (p *rowPred) cost() int {
	switch {
	case p.fixed != 0 || p.member != nil:
		return 0
	case p.strs != nil:
		return 4 // a string comparison
	case len(p.keys) > 1:
		return 2 // a binary search
	}
	return 1
}

func (p *rowPred) matches(row int) bool {
	if p.member != nil {
		return p.member.Contains(row)
	}
	if p.nulls != nil && p.nulls[row] {
		return false
	}
	if p.fixed != 0 {
		return p.fixed > 0
	}
	switch p.col.Type {
	case relation.Int:
		v := p.ints[row]
		if p.keys != nil {
			if _, ok := slices.BinarySearch(p.keys, v); ok {
				return true
			}
		}
		return p.compare(float64(v))
	case relation.Float:
		return p.compare(p.cells[row])
	}
	code := p.codes[row]
	if p.strs == nil {
		return slices.Contains(p.want, code)
	}
	return p.ordered(cmp.Compare(p.strs[code], p.Val.Str()))
}

// compare evaluates the predicate on a numeric cell as Value.Equal and
// Value.Less do: in float64, so a NaN is below and above nothing.
func (p *rowPred) compare(f float64) bool {
	switch p.Op {
	case OpGE:
		return !(f < p.num)
	case OpLE:
		return !(p.num < f)
	case OpGT:
		return p.num < f
	case OpLT:
		return f < p.num
	}
	return slices.Contains(p.flts, f)
}

// ordered evaluates a range predicate on the sign of cell - operand.
func (p *rowPred) ordered(c int) bool {
	switch p.Op {
	case OpGE:
		return c >= 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	case OpLT:
		return c < 0
	}
	return false
}

// postings counts the rows of [0, n) that satisfy a point predicate in
// one pass over its column, and returns the count with a function that
// lists them, ascending, in a second: the posting list a hash index over
// the column would hold for the predicate's operands, built for the one
// block that needs it when the epoch holds no such index — and listed
// only if the block reads it.
func (p *rowPred) postings(n int) (int, func() []int) {
	count := 0
	switch {
	case p.codes != nil && len(p.want) == 0:
		// No cell holds a value the dictionary lacks.
	case p.codes != nil && len(p.want) == 1 && p.nulls == nil:
		w := p.want[0]
		for _, c := range p.codes[:n] {
			if c == w {
				count++
			}
		}
	default:
		for row := range n {
			if p.matches(row) {
				count++
			}
		}
	}
	return count, func() []int {
		rows := make([]int, 0, count)
		for row := range n {
			if p.matches(row) {
				rows = append(rows, row)
			}
		}
		return rows
	}
}

func matchAll(preds []rowPred, row int) bool {
	for i := range preds {
		if !preds[i].matches(row) {
			return false
		}
	}
	return true
}

// among returns the rows of the ascending list that satisfy all preds.
func among(preds []rowPred, rows []int) []int {
	var out []int
	for _, row := range rows {
		if matchAll(preds, row) {
			out = append(out, row)
		}
	}
	return out
}

// below returns the rows in [0, n) that satisfy all preds: a scan.
func below(preds []rowPred, n int) []int {
	var out []int
	for row := 0; row < n; row++ {
		if matchAll(preds, row) {
			out = append(out, row)
		}
	}
	return out
}

// buildViews builds, for this block alone, the rows of the views it
// reads: a view with an = or IN predicate on its Point column lists the
// rows of those values only, unless it is From[0] and rowIDs is set —
// row ids another block meets on are the ids of every row. It returns
// them by name, nil when the block reads no view, and their number.
func (e *Executor) buildViews(pl *plan, rowIDs bool) (built map[string]*relation.Relation, rows int) {
	for i, name := range pl.q.From {
		v := e.db.View(name)
		if v == nil {
			continue
		}
		var codes []int32
		if j := pointPred(pl, i, v, rowIDs); j >= 0 {
			codes = append(make([]int32, 0, len(pl.preds[i][j].want)), pl.preds[i][j].want...)
		}
		if built == nil {
			built = make(map[string]*relation.Relation)
		}
		built[name] = v.Rows(codes)
		rows += built[name].NumRows()
	}
	return built, rows
}

// pointPred returns the index among FROM position i's predicates of the
// = or IN on view v's Point column that buildViews restricts v's rows
// to, -1 when there is none.
func pointPred(pl *plan, i int, v *relation.View, rowIDs bool) int {
	if i == 0 && rowIDs {
		return -1
	}
	return slices.IndexFunc(pl.preds[i], func(p rowPred) bool {
		return p.Col == v.Point && (p.Op == OpEq || p.Op == OpIn)
	})
}

// markApplied marks, in a plan bound to the views buildViews built, the
// predicate each was restricted to.
func (e *Executor) markApplied(pl *plan, rowIDs bool) {
	for i, name := range pl.q.From {
		if v := e.db.View(name); v != nil {
			if j := pointPred(pl, i, v, rowIDs); j >= 0 {
				pl.preds[i][j].applied = true
			}
		}
	}
}

// access is how one FROM relation's surviving rows are reached, and how
// many of them the join order expects.
type access struct {
	// est is the estimate: the exact count for a relation scanned here,
	// the candidate count of the most selective index-answerable
	// predicate otherwise, the relation's size when there is none.
	est int
	// cands returns the candidate rows ascending, a superset of the
	// surviving rows; nil when only a scan reaches the relation.
	cands func() []int
	// exact: cands are the surviving rows themselves.
	exact bool
	// scanned is the number of rows access read to find them: the size of
	// a relation filtered on the spot, 0 otherwise.
	scanned int
}

// access estimates rel's surviving rows without scanning a large
// relation: a view built for its predicates is its rows, a relation
// under indexMinRows is filtered on the spot, a point predicate costs
// the length of its posting list — read from the resident hash index,
// or built for this block when the epoch holds none on its column,
// counted in builds — and the rows a Reducer answered with are their
// own list. A range does not narrow the estimate, nor does a predicate
// a view was built for.
func (e *Executor) access(rel *relation.Relation, preds []rowPred, builds *int) access {
	n := rel.NumRows()
	if len(preds) == 0 {
		return access{est: n}
	}
	if !slices.ContainsFunc(preds, func(p rowPred) bool { return !p.applied }) {
		return access{est: n, cands: func() []int { return below(nil, n) }, exact: true}
	}
	if n < indexMinRows {
		rows := below(preds, n)
		return access{est: len(rows), cands: func() []int { return rows }, exact: true, scanned: n}
	}
	a := access{est: n}
	consider := func(count int, cands func() []int) {
		if a.cands == nil || count < a.est {
			a.est, a.cands = count, cands
		}
	}
	for i := range preds {
		p := &preds[i]
		if p.member != nil {
			consider(p.member.Count(), p.member.ToSorted)
			a.exact = len(preds) == 1
			continue
		}
		text := p.col.Type == relation.String && (p.Op == OpEq || p.Op == OpIn)
		if p.applied || !text && (p.keys == nil || len(p.flts) != 0) {
			continue
		}
		if h := e.idx.ResidentIntHash(rel, p.Col); h != nil && !text {
			runs := make([][]uint32, 0, 2*len(p.keys))
			total := 0
			for _, k := range p.keys {
				base, tail := h.Rows(k)
				runs = append(runs, base, tail)
				total += len(base) + len(tail)
			}
			consider(total, func() []int { return unionRows(runs, n) })
			continue
		}
		*builds++
		consider(p.postings(n))
	}
	return a
}

// unionRows merges ascending posting runs into one ascending,
// duplicate-free row list in the executor's row width: runs that follow
// one another — one key's base run and tail — are concatenated, and
// others (an IN may name one key twice) go through a row set.
func unionRows(runs [][]uint32, universe int) []int {
	total, last, ordered := 0, -1, true
	for _, run := range runs {
		if len(run) > 0 {
			ordered = ordered && int(run[0]) > last
			total, last = total+len(run), int(run[len(run)-1])
		}
	}
	if !ordered {
		s := index.NewRowSet(universe, total)
		for _, run := range runs {
			s.AddAll(run)
		}
		return s.ToSorted()
	}
	rows := make([]int, 0, total)
	for _, run := range runs {
		for _, r := range run {
			rows = append(rows, int(r))
		}
	}
	return rows
}

// scan returns the rows of rel that satisfy all preds, ascending: the
// anchor's stage. Candidates come from a's access path and are verified
// against the other predicates; a relation no point predicate reaches
// is scanned. cells is the number of rows scanned: 0 when a posting list
// supplied the candidates.
func scan(rel *relation.Relation, preds []rowPred, a access) (rows []int, cells int) {
	if a.exact {
		return a.cands(), a.scanned
	}
	if a.cands != nil {
		return among(preds, a.cands()), 0
	}
	return below(preds, rel.NumRows()), rel.NumRows()
}

// tuples is the intermediate result: one row id per FROM relation (by
// FROM position, -1 until joined) per tuple, back to back in one arena.
type tuples struct {
	width int
	ids   []int
}

func (t *tuples) len() int { return len(t.ids) / t.width }

func (t *tuples) at(i int) []int { return t.ids[i*t.width : (i+1)*t.width] }

// extended returns the empty tuples a join of t into a relation of est
// estimated rows fills, their arena sized for the smaller of the two —
// what a key-foreign-key join emits at most.
func (t *tuples) extended(est int) tuples {
	return tuples{width: t.width, ids: make([]int, 0, min(t.len(), est)*t.width)}
}

// emit appends src extended with row at position pos.
func (t *tuples) emit(src []int, pos, row int) {
	t.ids = append(t.ids, src...)
	t.ids[len(t.ids)-t.width+pos] = row
}

// sortBy orders the tuples lexicographically by row id, relations
// compared in the given order of FROM positions. Tuples are distinct
// row combinations, so the order is total.
func (t *tuples) sortBy(order []int) {
	less := func(a, b []int) int {
		for _, pos := range order {
			if a[pos] != b[pos] {
				return a[pos] - b[pos]
			}
		}
		return 0
	}
	n := t.len()
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = less(t.at(i-1), t.at(i)) < 0
	}
	if sorted {
		return
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int { return less(t.at(a), t.at(b)) })
	ids := make([]int, 0, len(t.ids))
	for _, i := range perm {
		ids = append(ids, t.at(i)...)
	}
	t.ids = ids
}

// step is one join of the chosen order: the relation of column to comes
// in, matched against column from of a relation already joined.
type step struct{ from, to boundCol }

// joinOrder picks the anchor and the join order from the estimates: start
// at the smallest relation, then always take the connected join that
// brings in the smallest relation next (ties go to the earlier FROM
// position). Joins left over connect two relations already joined; they
// are the cycle filters. The order depends on the estimates alone, so a
// disconnected join graph is an error whatever the data holds.
func (pl *plan) joinOrder(acc []access) (anchor int, steps []step, cycles []boundJoin, err error) {
	for i := range acc {
		if acc[i].est < acc[anchor].est {
			anchor = i
		}
	}
	joined := make([]bool, len(pl.rels))
	joined[anchor] = true
	pending := slices.Clone(pl.joins)
	for len(steps) < len(pl.rels)-1 {
		best, bestStep := -1, step{}
		for ji, j := range pending {
			s := step{j.l, j.r}
			if joined[j.r.pos] {
				s = step{j.r, j.l}
			}
			if joined[j.l.pos] == joined[j.r.pos] {
				continue
			}
			to, bt := s.to.pos, bestStep.to.pos
			if best < 0 || acc[to].est < acc[bt].est || acc[to].est == acc[bt].est && to < bt {
				best, bestStep = ji, s
			}
		}
		if best < 0 {
			var names []string
			for i, ok := range joined {
				if ok {
					names = append(names, pl.q.From[i])
				}
			}
			return 0, nil, nil, fmt.Errorf("engine: join graph disconnected (joined %v of %v)", names, pl.q.From)
		}
		joined[bestStep.to.pos] = true
		steps = append(steps, bestStep)
		pending = slices.Delete(pending, best, best+1)
	}
	return anchor, steps, pending, nil
}

// executeBlock evaluates the SPJA core of the query, its From[0]
// restricted to within when that is not nil.
func (e *Executor) executeBlock(ctx context.Context, q *Query, within *index.RowSet) (*Result, error) {
	pl, t, err := e.join(ctx, q, within, within != nil)
	if err != nil {
		return nil, err
	}
	sp := trace.SpanFrom(ctx)
	p := &poller{ctx: ctx}
	if pl.q.HasAggregation() {
		gs := stage(sp, "aggregate", "")
		t, err = groupFirst(p, t, pl.groupBy, pl.q.HavingCountGE)
		endStage(gs, 0, 0, t.len())
		if err != nil {
			return nil, err
		}
	}

	// DISTINCT keeps the first tuple of every distinct projection, so
	// only the survivors are materialized.
	ps := stage(sp, "project", "")
	if pl.q.Distinct {
		if t, err = groupFirst(p, t, pl.sel, 0); err != nil {
			ps.End()
			return nil, err
		}
	}
	res := pl.project(t)
	endStage(ps, 0, 0, res.NumRows())
	return res, nil
}

// endStage closes a stage span with the estimate it was ordered by
// (est_rows) next to what it produced (rows) and, for a scan or a join,
// the cells it read without an index (cells_streamed).
func endStage(s trace.Span, est, cells, rows int) {
	s.Add(trace.CounterEstRows, int64(est))
	s.Add(trace.CounterCellsStreamed, int64(cells))
	s.Add(trace.CounterRows, int64(rows))
	s.End()
}

// join binds q, lets the Reducer take what it answers out of it, builds
// the rows of the views that remain, restricts From[0] to within when
// that is not nil, and runs the scan, the joins and the cycle
// conditions: the joined tuples in canonical order, with the plan they
// were bound by. rowIDs says From[0]'s row ids meet another block's
// (meetsOnRows), so a view there lists every row.
func (e *Executor) join(ctx context.Context, q *Query, within *index.RowSet, rowIDs bool) (*plan, tuples, error) {
	pl, err := e.bind(q, nil)
	if err != nil {
		return nil, tuples{}, err
	}
	p := &poller{ctx: ctx}
	if err := p.err(); err != nil {
		return nil, tuples{}, err
	}
	var reduced *index.RowSet
	if e.reduce != nil {
		red, err := e.reduce(ctx, q)
		if err != nil {
			return nil, tuples{}, fmt.Errorf("engine: %w", err)
		}
		if red != nil {
			q, reduced = red.Rest, red.Rows
			if pl, err = e.bind(q, nil); err != nil {
				return nil, tuples{}, err
			}
		}
	}
	built, viewRows := e.buildViews(pl, rowIDs)
	if built != nil {
		if pl, err = e.bind(q, built); err != nil {
			return nil, tuples{}, err
		}
		e.markApplied(pl, rowIDs)
	}
	if reduced != nil {
		pl.preds[0] = slices.Insert(pl.preds[0], 0, rowPred{member: reduced})
	}
	if within != nil {
		pl.preds[0] = slices.Insert(pl.preds[0], 0, rowPred{member: within})
	}
	acc := make([]access, len(pl.rels))
	builds := 0
	for i, rel := range pl.rels {
		acc[i] = e.access(rel, pl.preds[i], &builds)
	}
	anchor, steps, cycles, err := pl.joinOrder(acc)
	if err != nil {
		return nil, tuples{}, err
	}

	// Stage spans are emitted in execution order (endStage). The scan
	// also carries the posting lists the block built (index_builds) and
	// the rows of the views it built (view_rows): joins build neither.
	sp := trace.SpanFrom(ctx)
	ss := stage(sp, "scan:", q.From[anchor])
	rows, cells := scan(pl.rels[anchor], pl.preds[anchor], acc[anchor])
	ss.Add(trace.CounterIndexBuilds, int64(builds))
	ss.Add(trace.CounterViewRows, int64(viewRows))
	// The rows of a block's only relation are its tuples already (every
	// access path returns a list of its own).
	t := tuples{width: len(q.From), ids: rows}
	if t.width > 1 {
		t.ids = make([]int, 0, len(rows)*t.width)
		blank := slices.Repeat([]int{-1}, t.width)
		for _, row := range rows {
			t.emit(blank, anchor, row)
		}
	}
	endStage(ss, acc[anchor].est, cells, t.len())

	for _, s := range steps {
		if err := p.err(); err != nil {
			return nil, tuples{}, err
		}
		to := s.to.pos
		js := stage(sp, "join:", q.From[to]) // FROM relations are unique, so join labels are too
		t, cells, err = e.extend(p, t, s, pl.rels[to], pl.preds[to], &acc[to])
		endStage(js, acc[to].est, cells, t.len())
		if err != nil {
			return nil, tuples{}, err
		}
	}

	// Join conditions between two relations already joined (cycles in
	// the join graph) filter the tuples under the same equality.
	if len(cycles) > 0 {
		cs := stage(sp, "cycle-join", "")
		for _, j := range cycles {
			if err = filterEqual(p, &t, j); err != nil {
				break
			}
		}
		endStage(cs, 0, 0, t.len())
		if err != nil {
			return nil, tuples{}, err
		}
	}

	// A single relation's rows left its access path ascending.
	if t.width > 1 {
		order := make([]int, t.width)
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order[1:], func(a, b int) int { return cmp.Compare(q.From[a], q.From[b]) })
		t.sortBy(order)
	}

	return pl, t, nil
}

// keyKind is the type two join columns are compared in.
type keyKind int

const (
	keyNone  keyKind = iota // TEXT against a number: never equal
	keyInt                  // INTEGER ⋈ INTEGER
	keyFloat                // a DOUBLE on either side: float64, as Value.Equal compares them
	keyText                 // TEXT ⋈ TEXT
)

func joinKind(a, b *relation.Column) keyKind {
	switch {
	case a.Type == relation.String && b.Type == relation.String:
		return keyText
	case a.Type == relation.String || b.Type == relation.String:
		return keyNone
	case a.Type == relation.Int && b.Type == relation.Int:
		return keyInt
	}
	return keyFloat
}

// keyCol reads one side of a join as typed keys held in int64 words,
// two cells being equal under Value.Equal exactly when their words are:
// the integer itself for keyInt, the float64's bits for keyFloat (-0
// folded into +0), a dictionary code for keyText. NULL has no key, and
// neither has NaN: they never join.
type keyCol struct {
	col  *relation.Column
	kind keyKind
	// into, for keyText, is the dictionary whose codes are the keys: the
	// other column's, when this side has to translate its strings.
	into *relation.Dict
	// xlat translates this column's codes into into's, a code at a time
	// as the join first meets it; nil when the codes are the keys. The
	// copies of a keyCol share it.
	xlat []int32
}

// keyCols binds the two sides of a join condition. TEXT keys are the
// right column's dictionary codes, so only the left side touches
// strings, once a distinct code (textKey).
func keyCols(l, r *relation.Column) (lk, rk keyCol) {
	kind := joinKind(l, r)
	lk, rk = keyCol{col: l, kind: kind, into: r.Dict()}, keyCol{col: r, kind: kind, into: r.Dict()}
	if kind == keyText && l.Dict() != r.Dict() {
		lk.xlat = slices.Repeat([]int32{xlatUnknown}, l.Dict().Len())
	}
	return lk, rk
}

// floatKey is the word of a DOUBLE key. A NaN keeps its own bits, which
// no table holds: key never hands one out.
func floatKey(f float64) int64 {
	if f == 0 {
		f = 0 // -0 equals +0
	}
	return int64(math.Float64bits(f))
}

// key is the key of one cell: what builds a join's table and probes a
// resident index, one row at a time. A streamed side is read through
// keyBlocks instead.
func (k keyCol) key(row int) (int64, bool) {
	c := k.col
	if c.IsNull(row) {
		return 0, false
	}
	switch k.kind {
	case keyInt:
		return c.Int64(row), true
	case keyFloat:
		f := c.Float64(row)
		return floatKey(f), f == f
	case keyText:
		code := k.textKey(c.Code(row))
		return code, code >= 0
	}
	return 0, false
}

// xlatUnknown marks a code keyCol.xlat has not translated yet.
const xlatUnknown = -2

// textKey is the key of a TEXT cell holding code c: c itself, or its
// translation into the other dictionary, -1 for a value that one lacks.
func (k keyCol) textKey(c int32) int64 {
	if k.xlat == nil || c < 0 {
		return int64(c)
	}
	if k.xlat[c] == xlatUnknown {
		k.xlat[c] = -1
		if code, ok := k.into.Lookup(k.col.Dict().Value(c)); ok {
			k.xlat[c] = code
		}
	}
	return int64(k.xlat[c])
}

// keyBlocks reads the streamed side of a join a block of keys at a
// time, straight from the column's storage: the words keyCol.key would
// return, without its per-cell NULL test and kind switch. A
// cell that has no key yields a word no table holds (a NaN's bits, -1
// for a string the other dictionary lacks) — except a NULL cell, which
// yields the zero its storage holds (NoCode for TEXT): the caller tests
// the NULL bitmap of the few cells whose word is in the table.
type keyBlocks struct {
	keyCol
	// rows lists the side's rows in stream order; nil streams the first
	// n rows of the column in row order.
	rows  []int
	n     int
	ints  []int64
	flts  []float64
	codes []int32
	// buf holds a gathered block; nil when blocks are views of ints.
	buf []int64
}

// newKeyBlocks streams the cells of k at rows — every row below n when
// rows is nil.
func newKeyBlocks(k keyCol, rows []int, n int) *keyBlocks {
	b := &keyBlocks{keyCol: k, rows: rows, n: n}
	if rows != nil {
		b.n = len(rows)
	}
	switch c := k.col; c.Type {
	case relation.Int:
		b.ints = c.RawInts()
	case relation.Float:
		b.flts = c.RawFloats()
	default:
		b.codes = c.RawCodes()
	}
	if k.kind != keyInt || rows != nil {
		b.buf = make([]int64, min(b.n, ctxCheckRows))
	}
	return b
}

// row is the row of the side's i-th cell.
func (b *keyBlocks) row(i int) int {
	if b.rows != nil {
		return b.rows[i]
	}
	return i
}

// block returns the keys of cells [lo, hi) of the side, hi - lo at most
// ctxCheckRows: a view of the storage for INTEGER keys streamed in row
// order, gathered into the buffer otherwise. Valid until the next call.
func (b *keyBlocks) block(lo, hi int) []int64 {
	if b.buf == nil {
		return b.ints[lo:hi]
	}
	buf, rows := b.buf[:hi-lo], b.rows
	if rows != nil {
		rows = rows[lo:hi]
	}
	switch b.kind {
	case keyInt:
		for i, r := range rows {
			buf[i] = b.ints[r]
		}
	case keyFloat:
		switch {
		case b.flts == nil: // the INTEGER side of INTEGER ⋈ DOUBLE
			for i := range buf {
				buf[i] = floatKey(b.col.Float64(b.row(lo + i)))
			}
		case rows == nil:
			for i, f := range b.flts[lo:hi] {
				buf[i] = floatKey(f)
			}
		default:
			for i, r := range rows {
				buf[i] = floatKey(b.flts[r])
			}
		}
	case keyText:
		if rows == nil {
			for i, c := range b.codes[lo:hi] {
				buf[i] = b.textKey(c)
			}
		} else {
			for i, r := range rows {
				buf[i] = b.textKey(b.codes[r])
			}
		}
	}
	return buf
}

// extend joins the relation of step s into the tuples; cells is how
// many cells of a column it streamed to do so, 0 when it probed an
// index.
func (e *Executor) extend(p *poller, t tuples, s step, rel *relation.Relation, preds []rowPred, a *access) (out tuples, cells int, err error) {
	okey, nkey := keyCols(s.from.col, s.to.col)
	if t.len() == 0 || okey.kind == keyNone {
		return tuples{width: t.width}, 0, nil
	}
	// A resident index on the new relation's join column answers each
	// tuple in O(1) — unless the relation's own candidates are fewer
	// than the tuples, when hashing those is less work.
	if okey.kind == keyInt && t.len() <= a.est {
		if h := e.idx.ResidentIntHash(rel, s.to.col.Name); h != nil {
			out, err = probeJoin(p, t, s, okey, h, preds, a.est)
			return out, 0, err
		}
	}
	return streamJoin(p, t, s, okey, nkey, rel, preds, a)
}

// probeJoin extends every tuple with the rows a resident hash index
// holds under its key, verifying the new relation's predicates per row.
func probeJoin(p *poller, t tuples, s step, okey keyCol, h *index.IntHash, preds []rowPred, est int) (tuples, error) {
	out := t.extended(est)
	for i, n := 0, t.len(); i < n; i++ {
		if err := p.poll(); err != nil {
			return out, err
		}
		src := t.at(i)
		k, ok := okey.key(src[s.from.pos])
		if !ok {
			continue
		}
		base, tail := h.Rows(k)
		for _, run := range [2][]uint32{base, tail} {
			for _, r := range run {
				row := int(r)
				if !matchAll(preds, row) {
					continue
				}
				out.emit(src, s.to.pos, row)
				if err := p.poll(); err != nil {
					return out, err
				}
			}
		}
	}
	return out, nil
}

// chains is the transient hash table of a join: key → the values added
// under it, as lists threaded through two flat slices, behind two
// filters a streamed key passes before the map is touched: the keys'
// range, and — when seal finds the range dense enough — one bit per
// value of the range.
type chains struct {
	head   map[int64]int32
	vals   []int
	next   []int32
	lo, hi int64
	// span is hi - lo, exact in a uint64 even from MinInt64 to MaxInt64.
	span uint64
	bits []uint64 // nil: the range is too sparse for a bitmap
}

// bitmapSlotsPerKey is the widest key range, in values per distinct
// key, that seal covers with a bitmap: one 8-byte word a key at most.
const bitmapSlotsPerKey = 64

func (c *chains) add(k int64, v int) {
	prev, ok := c.head[k]
	if !ok {
		prev = -1
	}
	if len(c.vals) == 0 {
		c.lo, c.hi = k, k
	}
	c.lo, c.hi = min(c.lo, k), max(c.hi, k)
	c.head[k] = int32(len(c.vals))
	c.vals = append(c.vals, v)
	c.next = append(c.next, prev)
}

// seal ends the build: no add follows it, first may.
func (c *chains) seal() {
	c.span = uint64(c.hi) - uint64(c.lo)
	if c.span/bitmapSlotsPerKey >= uint64(len(c.head)) {
		return
	}
	c.bits = make([]uint64, c.span/64+1)
	for k := range c.head {
		d := uint64(k) - uint64(c.lo)
		c.bits[d/64] |= 1 << (d % 64)
	}
}

// first returns the head of the list of key k, which lies d above lo
// and at most span above it; -1 when k was never added.
func (c *chains) first(d uint64, k int64) int32 {
	if c.bits != nil && c.bits[d/64]&(1<<(d%64)) == 0 {
		return -1
	}
	if j, ok := c.head[k]; ok {
		return j
	}
	return -1
}

// streamJoin extends the tuples with the matching surviving rows of rel
// through a transient table over the smaller side — the tuples' keys
// when they are fewer than the relation's candidate rows, the
// candidates' keys otherwise, built a row at a time — past which the
// other side streams once, a block of ctxCheckRows typed keys at a time
// (keyBlocks): one loop for every key type, for a whole column, a
// candidate list and the tuples alike. A streamed key is tested against
// the table's range and bitmap (chains.first); the NULL bitmap, the
// relation's predicates and the tuple arena are touched only for a cell
// whose key the table holds. Cancellation is checked once a block and
// once every ctxCheckRows tuples emitted. cells is the number of cells
// streamed.
func streamJoin(p *poller, t tuples, s step, okey, nkey keyCol, rel *relation.Relation, preds []rowPred, a *access) (out tuples, cells int, err error) {
	out = tuples{width: t.width}
	nt := t.len()
	onTuples := nt <= a.est
	// The relation's candidate rows: its access path's, or all of them.
	var cands []int
	n := rel.NumRows()
	if a.cands != nil {
		cands = a.cands()
		n = len(cands)
	}
	c := chains{head: make(map[int64]int32, min(nt, a.est))}
	var side *keyBlocks
	if onTuples {
		for i := 0; i < nt; i++ {
			if err := p.poll(); err != nil {
				return out, 0, err
			}
			if k, ok := okey.key(t.at(i)[s.from.pos]); ok {
				c.add(k, i)
			}
		}
		side = newKeyBlocks(nkey, cands, n)
	} else {
		from := make([]int, nt)
		for i := range from {
			from[i] = t.at(i)[s.from.pos]
		}
		for i := 0; i < n; i++ {
			if err := p.poll(); err != nil {
				return out, 0, err
			}
			row := i
			if cands != nil {
				row = cands[i]
			}
			if k, ok := nkey.key(row); ok && (a.exact || matchAll(preds, row)) {
				c.add(k, row)
			}
		}
		side = newKeyBlocks(okey, from, nt)
	}
	if len(c.vals) == 0 {
		return out, 0, nil
	}
	c.seal()
	out = t.extended(a.est)
	base, verify := uint64(c.lo), onTuples && !a.exact
	for lo := 0; lo < side.n; lo += ctxCheckRows {
		if err := p.err(); err != nil {
			return out, lo, err
		}
		hi := min(lo+ctxCheckRows, side.n)
		for i, k := range side.block(lo, hi) {
			// Most keys leave here: one below lo wraps past span.
			d := uint64(k) - base
			if d > c.span {
				continue
			}
			j := c.first(d, k)
			if j < 0 {
				continue
			}
			row := side.row(lo + i)
			if side.col.IsNull(row) || verify && !matchAll(preds, row) {
				continue
			}
			for ; j >= 0; j = c.next[j] {
				if onTuples {
					out.emit(t.at(c.vals[j]), s.to.pos, row)
				} else {
					out.emit(t.at(lo+i), s.to.pos, c.vals[j])
				}
				if err := p.poll(); err != nil {
					return out, hi, err
				}
			}
		}
	}
	return out, side.n, nil
}

// filterEqual keeps the tuples whose two already-joined rows agree on
// the join condition j, under the joins' equality.
func filterEqual(p *poller, t *tuples, j boundJoin) error {
	lkey, rkey := keyCols(j.l.col, j.r.col)
	kept := t.ids[:0]
	for i, n := 0, t.len(); i < n && lkey.kind != keyNone; i++ {
		if err := p.poll(); err != nil {
			return err
		}
		src := t.at(i)
		l, lok := lkey.key(src[j.l.pos])
		r, rok := rkey.key(src[j.r.pos])
		if lok && rok && l == r {
			kept = append(kept, src...)
		}
	}
	t.ids = kept
	return nil
}

// groupFirst groups the tuples by the values of cols and keeps the first
// tuple of every group of at least minCount, in first-seen order: GROUP
// BY with HAVING count(*) ≥ minCount, the kept tuple the group's
// representative — and DISTINCT, over the SELECT columns. A group is
// keyed by the kind-tagged, length-prefixed encoding of its values
// (appendKey), or, over a single TEXT column, by the dictionary code:
// two cells of one column are equal exactly when their codes are, NULL
// (NoCode) being a group of its own. When every group is kept and the
// dictionary is small beside the tuples, the codes seen are a bitmap and
// the tuples are compacted in place (firstByCode).
func groupFirst(p *poller, t tuples, cols []boundCol, minCount int) (tuples, error) {
	if len(cols) == 1 && cols[0].col.Type == relation.String && minCount <= 1 {
		if codes := cols[0].col.Dict().Len(); codes <= seenBitsPerTuple*t.len() {
			return firstByCode(p, t, cols[0], codes)
		}
	}
	out := tuples{width: t.width}
	var reps, counts []int // per group: its first tuple, its size
	group := func(i int) int {
		g := len(reps)
		reps, counts = append(reps, i), append(counts, 0)
		return g
	}
	var byCode map[int32]int
	var byKey map[string]int
	var buf []byte
	if len(cols) == 1 && cols[0].col.Type == relation.String {
		byCode = make(map[int32]int, min(t.len(), cols[0].col.Dict().Len()+1))
	} else {
		byKey = make(map[string]int)
	}
	for i, n := 0, t.len(); i < n; i++ {
		if err := p.poll(); err != nil {
			return out, err
		}
		src := t.at(i)
		var g int
		var ok bool
		if byCode != nil {
			code := cols[0].col.Code(src[cols[0].pos])
			if g, ok = byCode[code]; !ok {
				g = group(i)
				byCode[code] = g
			}
		} else {
			buf = buf[:0]
			for _, k := range cols {
				buf = appendKey(buf, k.col.Get(src[k.pos]))
			}
			if g, ok = byKey[string(buf)]; !ok {
				g = group(i)
				byKey[string(buf)] = g
			}
		}
		counts[g]++
	}
	out.ids = make([]int, 0, len(reps)*t.width)
	for g, i := range reps {
		if counts[g] >= minCount {
			out.ids = append(out.ids, t.at(i)...)
		}
	}
	return out, nil
}

// seenBitsPerTuple is the largest dictionary, in codes per tuple, that
// firstByCode covers with a bitmap. The map costs 40–50 ns a tuple
// whatever the dictionary; the bitmap costs its zeroing, 6 ns a tuple at
// 16 codes each, 17 at 256, 28 at 512, 48 at 1,024 and 125 at 2,048
// (BenchmarkDistinctText): they cross near 900, and the bound sits well
// under that.
const seenBitsPerTuple = 256

// firstByCode keeps the first tuple of every distinct code of the TEXT
// column c, and the first whose cell is NULL, compacting t in place: one
// bit a code of the dictionary, tested and set per tuple.
func firstByCode(p *poller, t tuples, c boundCol, codes int) (tuples, error) {
	cells := c.col.RawCodes()
	seen := make([]uint64, codes/64+1)
	sawNull := false
	kept := t.ids[:0]
	for i, n := 0, t.len(); i < n; i++ {
		if err := p.poll(); err != nil {
			return t, err
		}
		src := t.at(i)
		if code := cells[src[c.pos]]; code == relation.NoCode {
			if sawNull {
				continue
			}
			sawNull = true
		} else {
			w, bit := &seen[code>>6], uint64(1)<<(code&63)
			if *w&bit != 0 {
				continue
			}
			*w |= bit
		}
		kept = append(kept, src...)
	}
	t.ids = kept
	return t, nil
}

// project materializes the SELECT columns of every tuple.
func (pl *plan) project(t tuples) *Result {
	res := &Result{}
	for _, s := range pl.q.Select {
		res.Cols = append(res.Cols, s.String())
	}
	n, w := t.len(), len(pl.sel)
	cells := make([]relation.Value, n*w)
	for k, c := range pl.sel {
		if c.col.Type == relation.String {
			// A column of TEXT cells at a time: the dictionary's values
			// and the codes are fetched once, not per cell.
			codes, nulls, strs := c.col.RawCodes(), c.col.RawNulls(), c.col.Dict().Values()
			for i := 0; i < n; i++ {
				if row := t.ids[i*t.width+c.pos]; nulls == nil || !nulls[row] {
					cells[i*w+k] = relation.StringVal(strs[codes[row]])
				}
			}
			continue
		}
		for i := 0; i < n; i++ {
			cells[i*w+k] = c.col.Get(t.ids[i*t.width+c.pos])
		}
	}
	res.Rows = make([][]relation.Value, n)
	for i := range res.Rows {
		res.Rows[i] = cells[i*w : (i+1)*w : (i+1)*w]
	}
	return res
}
