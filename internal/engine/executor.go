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
// shortest posting list among its point predicates (= and IN, answered
// from the shared hash-index pool) and the O(log n) count of any range
// whose sorted numeric index is already resident. Execution anchors at
// the smallest estimate and extends greedily along connected joins
// towards the smallest relation next, so a discovered plan runs as a
// chain of key lookups whatever order it lists its relations in.
//
// Joins compare typed keys under Value.Equal's rules — int64 for
// INTEGER⋈INTEGER, float64 when a DOUBLE is involved, strings for
// TEXT⋈TEXT; TEXT never equals a number and NULL never joins. A join
// probes a hash index when the pool already holds one on the new
// relation's join column, and never builds one: otherwise it hashes the
// smaller side in a transient table and streams the other side's column
// once. Predicates on a joined relation are verified per candidate row.
//
// Row order is part of the contract: after the joins the tuples are
// sorted by row id, From[0]'s first and then the other relations' in
// name order, so Result.Rows, DISTINCT's first-seen row and GROUP BY's
// representative depend neither on the join order chosen, nor on which
// indexes happen to be resident, nor on the order the query lists the
// relations it joins to From[0].
//
// The index pool is concurrency-safe, so one executor can serve many
// goroutines.
type Executor struct {
	db  *relation.Database
	idx *index.IndexSet
}

// indexMinRows is the relation size below which a scan beats building or
// probing a hash index.
const indexMinRows = 64

// NewExecutor creates an executor over db with a private index pool.
func NewExecutor(db *relation.Database) *Executor {
	return NewExecutorWithIndexes(db, index.NewIndexSet())
}

// NewExecutorWithIndexes creates an executor sharing an existing index
// pool (the αDB hands its own pool over, so engine lookups reuse the
// offline indexes and stay consistent under incremental inserts).
func NewExecutorWithIndexes(db *relation.Database, idx *index.IndexSet) *Executor {
	return &Executor{db: db, idx: idx}
}

// Execute runs the query and returns its projected tuples. DISTINCT and
// intersection are applied after projection.
func (e *Executor) Execute(q *Query) (*Result, error) {
	//lint:ignore ctxpoll non-cancellable convenience wrapper; ExecuteCtx is the ctx-threading entry point
	return e.ExecuteCtx(context.Background(), q)
}

// ctxCheckRows is how many units of work — rows streamed, tuples probed,
// tuples emitted — a join, filter or aggregation does between
// cancellation checks: frequent enough that a pathological query aborts
// promptly, rare enough to stay off the profile.
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

// ExecuteCtx is Execute with cooperative cancellation: ctx.Err() is
// consulted between pipeline stages, between intersect branches, and
// every few thousand rows read or emitted inside joins and aggregation,
// so a canceled or deadline-expired context aborts even a pathological
// query (and releases whatever lock the caller executes under) instead
// of running to completion. The returned error wraps ctx's error;
// match it with errors.Is.
func (e *Executor) ExecuteCtx(ctx context.Context, q *Query) (*Result, error) {
	res, err := e.executeNoIntersect(ctx, q)
	if err != nil {
		return nil, err
	}
	sp := trace.SpanFrom(ctx)
	for i, sub := range q.Intersect {
		// Each intersect branch executes under its own stage span, so its
		// scan/join stages nest there instead of mixing with the parent's.
		isp := trace.Span{}
		if sp.Active() {
			isp = sp.Child(trace.PhaseStage, "intersect:"+strconv.Itoa(i))
		}
		subRes, err := e.ExecuteCtx(trace.NewContext(ctx, isp), sub)
		isp.End()
		if err != nil {
			return nil, err
		}
		res.intersect(subRes)
	}
	return res, nil
}

// stage begins the span of one executor stage (scan:<rel>, join:<rel>,
// cycle-join, aggregate, project). Untraced, it neither builds the label
// nor touches a recorder.
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

func (e *Executor) bind(q *Query) (*plan, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("engine: query has no FROM relations")
	}
	pl := &plan{
		q:     q,
		pos:   make(map[string]int, len(q.From)),
		rels:  make([]*relation.Relation, len(q.From)),
		preds: make([][]rowPred, len(q.From)),
	}
	for i, name := range q.From {
		r := e.db.Relation(name)
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
		pl.preds[i] = append(pl.preds[i], bindPred(p, col))
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

// rowPred is a predicate bound to its column. Equality and IN over a
// TEXT column compare dictionary codes, resolved once per execution; an
// IN of integers over an INTEGER column — a plan may carry a filter's
// whole row set as keys (sqlgen.ToEngineQuery) — searches its operands
// sorted; everything else evaluates Pred.Matches on the cell.
type rowPred struct {
	Pred
	col    *relation.Column
	byCode bool
	codes  []int32
	keys   []int64 // non-nil: the sorted operands of an integer IN
}

func bindPred(p Pred, col *relation.Column) rowPred {
	rp := rowPred{Pred: p, col: col}
	if col.Type == relation.Int && p.Op == OpIn {
		keys := make([]int64, 0, len(p.Vals))
		for _, v := range p.Vals {
			if !v.IsInt() {
				return rp // 3.0 equals 3: Matches knows how
			}
			keys = append(keys, v.Int())
		}
		slices.Sort(keys)
		rp.keys = keys
		return rp
	}
	if col.Type != relation.String || (p.Op != OpEq && p.Op != OpIn) {
		return rp
	}
	rp.byCode = true
	vals := p.Vals
	if p.Op == OpEq {
		vals = []relation.Value{p.Val}
	}
	for _, v := range vals {
		// A non-TEXT operand equals no TEXT cell; a string the
		// dictionary never interned is in no row.
		if v.IsString() {
			if code, ok := col.Dict().Lookup(v.Str()); ok {
				rp.codes = append(rp.codes, code)
			}
		}
	}
	return rp
}

func (p *rowPred) matches(row int) bool {
	if p.keys != nil {
		if p.col.IsNull(row) {
			return false
		}
		_, ok := slices.BinarySearch(p.keys, p.col.Int64(row))
		return ok
	}
	if !p.byCode {
		return p.Matches(p.col.Get(row))
	}
	return !p.col.IsNull(row) && slices.Contains(p.codes, p.col.Code(row))
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
}

// access estimates rel's surviving rows without scanning a large
// relation and without building a numeric index: a relation under
// indexMinRows is filtered on the spot, a point predicate costs the
// length of its posting list (its hash index is built on first use, as
// it always was), a range counts only against a resident index.
func (e *Executor) access(rel *relation.Relation, preds []rowPred) access {
	n := rel.NumRows()
	if len(preds) == 0 {
		return access{est: n}
	}
	if n < indexMinRows {
		rows := below(preds, n)
		return access{est: len(rows), cands: func() []int { return rows }, exact: true}
	}
	a := access{est: n}
	consider := func(count int, cands func() []int) {
		if a.cands == nil || count < a.est {
			a.est, a.cands = count, cands
		}
	}
	for i := range preds {
		p := &preds[i]
		var lists [][]uint32
		switch {
		case p.Op == OpEq && p.col.Type == relation.Int && p.Val.IsInt():
			lists = [][]uint32{e.idx.IntHash(rel, p.Col).Rows(p.Val.Int())}
		case p.Op == OpEq && p.col.Type == relation.String && p.Val.IsString():
			lists = [][]uint32{e.idx.StrHash(rel, p.Col).Rows(p.Val.Str())}
		case p.keys != nil:
			h := e.idx.IntHash(rel, p.Col)
			for _, k := range p.keys {
				lists = append(lists, h.Rows(k))
			}
		case p.Op == OpIn && p.col.Type == relation.String:
			h := e.idx.StrHash(rel, p.Col)
			for _, v := range p.Vals {
				if v.IsString() {
					lists = append(lists, h.Rows(v.Str()))
				}
			}
		default:
			continue
		}
		total := 0
		for _, l := range lists {
			total += len(l)
		}
		consider(total, func() []int { return unionRows(lists, n) })
	}
	if count, cands := e.bestRange(rel, preds, false); cands != nil {
		consider(count, cands)
	}
	return a
}

// unionRows merges posting lists into one ascending, duplicate-free row
// list (an IN may name one value twice, or two that normalize alike).
func unionRows(lists [][]uint32, universe int) []int {
	if len(lists) == 1 {
		return widen(lists[0])
	}
	s := index.NewRowSet(universe)
	for _, l := range lists {
		s.AddAll(widen(l))
	}
	return s.ToSorted()
}

// widen copies an index's uint32 posting list into the executor's row
// width.
func widen(list []uint32) []int {
	rows := make([]int, len(list))
	for i, r := range list {
		rows[i] = int(r)
	}
	return rows
}

// bestRange returns the most selective range access path: the sorted
// numeric index of a ranged column, by its O(log n) count; cands is nil
// when there is none. Range predicates combine per column: age >= 50
// AND age <= 90 is one [50, 90] probe, the engine-level form of BETWEEN.
// With build false only resident indexes count; build is for an anchor
// that has no other access path, where sorting the column once beats
// scanning it on every execution.
func (e *Executor) bestRange(rel *relation.Relation, preds []rowPred, build bool) (count int, cands func() []int) {
	type bounds struct {
		col    string
		lo, hi float64
	}
	var ranges []bounds
	for i := range preds {
		p := &preds[i]
		if p.Op != OpGE && p.Op != OpLE && p.Op != OpGT && p.Op != OpLT ||
			p.col.Type == relation.String || p.Val.IsNull() || p.Val.IsString() {
			continue
		}
		k := slices.IndexFunc(ranges, func(b bounds) bool { return b.col == p.Col })
		if k < 0 {
			k = len(ranges)
			ranges = append(ranges, bounds{p.Col, math.Inf(-1), math.Inf(1)})
		}
		b := &ranges[k]
		// The sorted index answers closed intervals; strict bounds
		// shift to the adjacent representable float, which is exact
		// for the float64 values the index stores.
		v := p.Val.Float()
		switch p.Op {
		case OpGT:
			v = math.Nextafter(v, math.Inf(1))
			fallthrough
		case OpGE:
			b.lo = max(b.lo, v)
		case OpLT:
			v = math.Nextafter(v, math.Inf(-1))
			fallthrough
		case OpLE:
			b.hi = min(b.hi, v)
		}
	}
	for _, b := range ranges {
		n := e.idx.ResidentNumeric(rel, b.col)
		if n == nil && build {
			n = e.idx.Numeric(rel, b.col)
		}
		if n == nil {
			continue
		}
		if c := n.CountRange(b.lo, b.hi); cands == nil || c < count {
			count, cands = c, func() []int { return n.RowsInRange(b.lo, b.hi) }
		}
	}
	return count, cands
}

// scan returns the rows of rel that satisfy all preds, ascending: the
// anchor's stage. Candidates come from a's access path and are verified
// (string indexes are normalization-folded, so a posting list is a
// superset); an indexable relation no point predicate reaches falls
// back to a range's numeric index, building it, and then to a scan.
func (e *Executor) scan(rel *relation.Relation, preds []rowPred, a access) []int {
	if a.exact {
		return a.cands()
	}
	if a.cands == nil && rel.NumRows() >= indexMinRows {
		_, a.cands = e.bestRange(rel, preds, true)
	}
	if a.cands != nil {
		return among(preds, a.cands())
	}
	return below(preds, rel.NumRows())
}

// tuples is the intermediate result: one row id per FROM relation (by
// FROM position, -1 until joined) per tuple, back to back in one arena.
type tuples struct {
	width int
	ids   []int
}

func (t *tuples) len() int { return len(t.ids) / t.width }

func (t *tuples) at(i int) []int { return t.ids[i*t.width : (i+1)*t.width] }

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

// executeNoIntersect evaluates the SPJA core of the query.
func (e *Executor) executeNoIntersect(ctx context.Context, q *Query) (*Result, error) {
	pl, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	p := &poller{ctx: ctx}
	if err := p.err(); err != nil {
		return nil, err
	}
	acc := make([]access, len(pl.rels))
	for i, rel := range pl.rels {
		acc[i] = e.access(rel, pl.preds[i])
	}
	anchor, steps, cycles, err := pl.joinOrder(acc)
	if err != nil {
		return nil, err
	}

	// Stage spans are emitted in execution order, each with the estimate
	// it was ordered by (est_rows) next to what it produced (rows).
	sp := trace.SpanFrom(ctx)
	endStage := func(s trace.Span, est, rows int) {
		s.Add(trace.CounterEstRows, int64(est))
		s.Add(trace.CounterRows, int64(rows))
		s.End()
	}
	ss := stage(sp, "scan:", q.From[anchor])
	t := tuples{width: len(q.From)}
	blank := slices.Repeat([]int{-1}, t.width)
	for _, row := range e.scan(pl.rels[anchor], pl.preds[anchor], acc[anchor]) {
		t.emit(blank, anchor, row)
	}
	endStage(ss, acc[anchor].est, t.len())

	for _, s := range steps {
		if err := p.err(); err != nil {
			return nil, err
		}
		to := s.to.pos
		js := stage(sp, "join:", q.From[to]) // FROM relations are unique, so join labels are too
		t, err = e.extend(p, t, s, pl.rels[to], pl.preds[to], &acc[to])
		endStage(js, acc[to].est, t.len())
		if err != nil {
			return nil, err
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
		endStage(cs, 0, t.len())
		if err != nil {
			return nil, err
		}
	}

	order := make([]int, t.width)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order[1:], func(a, b int) int { return cmp.Compare(q.From[a], q.From[b]) })
	t.sortBy(order)

	if q.HasAggregation() {
		gs := stage(sp, "aggregate", "")
		t, err = pl.aggregate(p, t)
		endStage(gs, 0, t.len())
		if err != nil {
			return nil, err
		}
	}

	ps := stage(sp, "project", "")
	res := pl.project(t)
	if q.Distinct {
		res.distinct()
	}
	endStage(ps, 0, res.NumRows())
	return res, nil
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
}

// keyCols binds the two sides of a join condition. TEXT keys are the
// right column's dictionary codes, so only the left side touches strings.
func keyCols(l, r *relation.Column) (lk, rk keyCol) {
	kind := joinKind(l, r)
	return keyCol{l, kind, r.Dict()}, keyCol{r, kind, r.Dict()}
}

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
		if f == 0 {
			f = 0 // -0 equals +0
		}
		return int64(math.Float64bits(f)), f == f
	case keyText:
		if c.Dict() == k.into {
			return int64(c.Code(row)), true
		}
		code, ok := k.into.Lookup(c.Str(row))
		return int64(code), ok
	}
	return 0, false
}

// extend joins the relation of step s into the tuples.
func (e *Executor) extend(p *poller, t tuples, s step, rel *relation.Relation, preds []rowPred, a *access) (tuples, error) {
	okey, nkey := keyCols(s.from.col, s.to.col)
	if t.len() == 0 || okey.kind == keyNone {
		return tuples{width: t.width}, nil
	}
	// A resident index on the new relation's join column answers each
	// tuple in O(1) — unless the relation's own candidates are fewer
	// than the tuples, when hashing those is less work.
	if okey.kind == keyInt && t.len() <= a.est {
		if h := e.idx.ResidentIntHash(rel, s.to.col.Name); h != nil {
			return probeJoin(p, t, s, okey, h, preds)
		}
	}
	return streamJoin(p, t, s, okey, nkey, rel, preds, a)
}

// probeJoin extends every tuple with the rows a resident hash index
// holds under its key, verifying the new relation's predicates per row.
func probeJoin(p *poller, t tuples, s step, okey keyCol, h *index.IntHash, preds []rowPred) (tuples, error) {
	out := tuples{width: t.width}
	for i, n := 0, t.len(); i < n; i++ {
		if err := p.poll(); err != nil {
			return out, err
		}
		src := t.at(i)
		k, ok := okey.key(src[s.from.pos])
		if !ok {
			continue
		}
		for _, r := range h.Rows(k) {
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
	return out, nil
}

// chains is the transient hash table of a join: key → the values added
// under it, as lists threaded through two flat slices. lo and hi bound
// the keys, so a streamed key outside them skips the map.
type chains struct {
	head   map[int64]int32
	vals   []int
	next   []int32
	lo, hi int64
}

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

// first returns the head of k's list, -1 when k was never added.
func (c *chains) first(k int64) int32 {
	if k < c.lo || k > c.hi {
		return -1
	}
	if j, ok := c.head[k]; ok {
		return j
	}
	return -1
}

// streamJoin extends the tuples with the matching surviving rows of rel
// through a transient table over the smaller side: the tuples' keys
// when they are fewer than the relation's candidate rows, which are
// then streamed past the table once; the candidates' keys otherwise.
func streamJoin(p *poller, t tuples, s step, okey, nkey keyCol, rel *relation.Relation, preds []rowPred, a *access) (tuples, error) {
	out := tuples{width: t.width}
	nt := t.len()
	onTuples := nt <= a.est
	c := chains{head: make(map[int64]int32, min(nt, a.est)), hi: -1}
	if onTuples {
		for i := 0; i < nt; i++ {
			if k, ok := okey.key(t.at(i)[s.from.pos]); ok {
				c.add(k, i)
			}
		}
	}
	// The relation's candidate rows: its access path's, or all of them.
	var cands []int
	n := rel.NumRows()
	if a.cands != nil {
		cands = a.cands()
		n = len(cands)
	}
	for i := 0; i < n; i++ {
		if err := p.poll(); err != nil {
			return out, err
		}
		row := i
		if cands != nil {
			row = cands[i]
		}
		k, ok := nkey.key(row)
		if !ok {
			continue
		}
		if !onTuples {
			if a.exact || matchAll(preds, row) {
				c.add(k, row)
			}
			continue
		}
		j := c.first(k)
		if j < 0 || !a.exact && !matchAll(preds, row) {
			continue
		}
		for ; j >= 0; j = c.next[j] {
			out.emit(t.at(c.vals[j]), s.to.pos, row)
			if err := p.poll(); err != nil {
				return out, err
			}
		}
	}
	if onTuples {
		return out, nil
	}
	for i := 0; i < nt; i++ {
		if err := p.poll(); err != nil {
			return out, err
		}
		src := t.at(i)
		k, ok := okey.key(src[s.from.pos])
		if !ok {
			continue
		}
		for j := c.first(k); j >= 0; j = c.next[j] {
			out.emit(src, s.to.pos, c.vals[j])
			if err := p.poll(); err != nil {
				return out, err
			}
		}
	}
	return out, nil
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

// aggregate groups the tuples by the GroupBy columns, applies
// HAVING count(*) ≥ N, and keeps each group's first tuple as its
// representative; groups come out in first-seen order.
func (pl *plan) aggregate(p *poller, t tuples) (tuples, error) {
	out := tuples{width: t.width}
	groups := make(map[string]int) // key → index into reps/counts
	var reps, counts []int
	var buf []byte
	for i, n := 0, t.len(); i < n; i++ {
		if err := p.poll(); err != nil {
			return out, err
		}
		src := t.at(i)
		buf = buf[:0]
		for _, k := range pl.groupBy {
			buf = appendKey(buf, k.col.Get(src[k.pos]))
		}
		g, ok := groups[string(buf)]
		if !ok {
			g = len(reps)
			groups[string(buf)] = g
			reps, counts = append(reps, i), append(counts, 0)
		}
		counts[g]++
	}
	for g, i := range reps {
		if counts[g] >= pl.q.HavingCountGE {
			out.ids = append(out.ids, t.at(i)...)
		}
	}
	return out, nil
}

// project materializes the SELECT columns of every tuple.
func (pl *plan) project(t tuples) *Result {
	res := &Result{}
	for _, s := range pl.q.Select {
		res.Cols = append(res.Cols, s.String())
	}
	n, w := t.len(), len(pl.sel)
	cells := make([]relation.Value, n*w)
	res.Rows = make([][]relation.Value, n)
	for i := range res.Rows {
		row := cells[i*w : (i+1)*w : (i+1)*w]
		src := t.at(i)
		for k, c := range pl.sel {
			row[k] = c.col.Get(src[c.pos])
		}
		res.Rows[i] = row
	}
	return res
}

// Count executes the query and returns only the result cardinality.
func (e *Executor) Count(q *Query) (int, error) {
	res, err := e.Execute(q)
	if err != nil {
		return 0, err
	}
	return res.NumRows(), nil
}
