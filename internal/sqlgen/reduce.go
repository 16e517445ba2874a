package sqlgen

import (
	"context"
	"slices"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/engine"
	"squid/internal/relation"
	"squid/internal/trace"
)

// Reduce is the executor's pre-pass over one SPJ block (engine.Reducer,
// bound to the epoch the execution pinned): the filters liftFilters
// recognizes in q are answered from the αDB's memoized row sets — the
// sets a discovery of the same filters built — intersected most
// selective first, and the block is returned without them. A set no
// discovery left in its memo is built for this execution and not
// stored (Filter.Unstored): the operands of an executed plan are its
// client's to choose, and a memo they could key would grow without
// bound. A traced execution records the stage as reduce:<entity>, with
// the filters lifted, the most selective set's size (est_rows) and the
// intersection's (rows), over one rowset span a filter. ctx is consulted
// between filters; nil means the block runs as it is — nothing was
// recognized, or (selective) nothing worth handing a join.
func Reduce(ctx context.Context, ep *adb.Epoch, q *engine.Query) (*engine.Reduction, error) {
	filters, rest := liftFilters(ep, q)
	if len(filters) == 0 || len(rest.From) > 1 && !selective(filters) {
		return nil, nil
	}
	sp := trace.Span{}
	if parent := trace.SpanFrom(ctx); parent.Active() {
		sp = parent.Child(trace.PhaseStage, "reduce:"+q.From[0])
	}
	defer sp.End()
	for _, f := range filters {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f.RowSetUnder(sp)
	}
	rows := abduction.IntersectRowSet(filters)
	if sp.Active() {
		est := filters[0].RowSet().Count()
		for _, f := range filters[1:] {
			est = min(est, f.RowSet().Count())
		}
		sp.Add(trace.CounterFilters, int64(len(filters)))
		sp.Add(trace.CounterEstRows, int64(est))
		sp.Add(trace.CounterRows, int64(rows.Count()))
	}
	return &engine.Reduction{Rest: rest, Rows: rows}, nil
}

// selective reports whether some filter keeps at most half of the
// entity's rows, by the statistic its ψ is read from. A block that still
// joins after its filters are lifted is reduced only then: the rows
// reach a join as a candidate list to gather keys from, which costs
// about twice a streamed cell of the whole column (engine's
// BenchmarkStreamJoin: 4.5 against 2.1 ns), so a list over half the
// relation loses to the block as it was written
// (BenchmarkExecutePlans/rejected: 349 µs against 276 before this test,
// IQ9 keeping a birth_year range seven persons in ten satisfy).
func selective(filters []*abduction.Filter) bool {
	for _, f := range filters {
		if f.Selectivity() <= 0.5 {
			return true
		}
	}
	return false
}

// liftFilters is the inverse of ToEngineQuery: it finds in one block the
// filters over From[0]'s properties that ToEngineQuery places, and
// returns them with the block that remains once they are taken out. A
// block is touched only when taking a semi-join out of it changes
// nothing the executor returns: it is DISTINCT, does not aggregate,
// From[0] is an entity relation, and every other FROM relation is
// joined, directly or not, to From[0] (a disconnected block is the
// executor's error to report).
//
// The FROM relations other than From[0] fall into the components the
// joins among them connect. A component that SELECT does not read is a
// filter when it is a property's αDB lowering to the letter — its
// relations, every join that touches it, every predicate on it — with
// operands of the property's type: =/IN text on a categorical value
// column, = text and >= integer on a derived relation's value and count.
// So are, among the predicates on From[0] itself, col =/IN text on a
// direct categorical property and a pair col >= number, col <= number on
// a direct numeric one. Anything else — a join or predicate more or
// less, an operand of another type, a value the property's dictionary
// does not hold — stays in the block, for the join pipeline.
func liftFilters(ep *adb.Epoch, q *engine.Query) ([]*abduction.Filter, *engine.Query) {
	if !q.Distinct || q.HasAggregation() || len(q.From) == 0 {
		return nil, nil
	}
	info := ep.Entity(q.From[0])
	if info == nil {
		return nil, nil
	}
	l := lifter{info: info, q: q}

	// comp[i] is the smallest FROM position of i's component; 0 is the
	// entity, which joins nothing together.
	comp := make([]int, len(q.From))
	for i := range comp {
		comp[i] = i
	}
	pos := func(rel string) int { return slices.Index(q.From, rel) }
	for _, j := range q.Joins {
		if a, b := comp[pos(j.LeftRel)], comp[pos(j.RightRel)]; a > 0 && b > 0 && a != b {
			for i, c := range comp {
				if c == max(a, b) {
					comp[i] = min(a, b)
				}
			}
		}
	}
	parts := make([]component, len(q.From))
	for i, rel := range q.From[1:] {
		c := &parts[comp[i+1]]
		c.rels = append(c.rels, rel)
	}
	for ji, j := range q.Joins {
		a, b := comp[pos(j.LeftRel)], comp[pos(j.RightRel)]
		if a > 0 {
			parts[a].joins = append(parts[a].joins, ji)
			parts[a].hangs = parts[a].hangs || b == 0
		}
		if b > 0 && b != a {
			parts[b].joins = append(parts[b].joins, ji)
			parts[b].hangs = parts[b].hangs || a == 0
		}
	}
	for pi, p := range q.Preds {
		c := &parts[comp[pos(p.Rel)]]
		c.preds = append(c.preds, pi)
	}
	for _, s := range q.Select {
		parts[comp[pos(s.Rel)]].selected = true
	}

	var filters []*abduction.Filter
	goneRel := make([]bool, len(q.From))
	goneJoin := make([]bool, len(q.Joins))
	gonePred := make([]bool, len(q.Preds))
	for ci := 1; ci < len(parts); ci++ {
		c := &parts[ci]
		if len(c.rels) == 0 {
			continue
		}
		if !c.hangs {
			return nil, nil
		}
		if c.selected {
			continue
		}
		if f := l.component(c); f != nil {
			filters = append(filters, f)
			for _, rel := range c.rels {
				goneRel[pos(rel)] = true
			}
			for _, ji := range c.joins {
				goneJoin[ji] = true
			}
			for _, pi := range c.preds {
				gonePred[pi] = true
			}
		}
	}
	for _, pi := range parts[0].preds {
		if gonePred[pi] {
			continue
		}
		switch p := q.Preds[pi]; p.Op {
		case engine.OpEq, engine.OpIn:
			if f := categorical(l.direct(p.Col, adb.Categorical), p); f != nil {
				filters = append(filters, f)
				gonePred[pi] = true
			}
		case engine.OpGE:
			for _, pj := range parts[0].preds {
				if hi := q.Preds[pj]; !gonePred[pj] && hi.Op == engine.OpLE && hi.Col == p.Col {
					if f := l.numeric(p, hi); f != nil {
						filters = append(filters, f)
						gonePred[pi], gonePred[pj] = true, true
					}
					break
				}
			}
		}
	}
	if len(filters) == 0 {
		return nil, nil
	}

	rest := &engine.Query{Select: q.Select, Distinct: true}
	for i, rel := range q.From {
		if !goneRel[i] {
			rest.From = append(rest.From, rel)
		}
	}
	for ji, j := range q.Joins {
		if !goneJoin[ji] {
			rest.Joins = append(rest.Joins, j)
		}
	}
	for pi, p := range q.Preds {
		if !gonePred[pi] {
			rest.Preds = append(rest.Preds, p)
		}
	}
	return filters, rest
}

// component is one connected group of FROM relations other than the
// entity, with everything of the block that mentions it.
type component struct {
	rels     []string
	joins    []int // into Query.Joins: every join with a side in it
	preds    []int // into Query.Preds: every predicate on it
	hangs    bool  // a join ties it to the entity
	selected bool  // SELECT reads it
}

// lifter matches the pieces of one block against the properties of its
// entity.
type lifter struct {
	info *adb.EntityInfo
	q    *engine.Query
}

// component returns the filter c spells, nil when it spells none: the
// first of the entity's properties whose αDB lowering c is, with c's
// operands.
func (l *lifter) component(c *component) *abduction.Filter {
	entity, pk := l.info.Relation, l.info.PK
	var lw lowered
	for _, bp := range l.info.Basic {
		lw.lower(&abduction.Filter{Kind: abduction.BasicCategorical, Basic: bp}, entity, pk, false)
		if p, ok := l.spells(c, &lw); ok {
			return categorical(bp, p[0])
		}
	}
	for _, dp := range l.info.Derived {
		lw.lower(&abduction.Filter{Kind: abduction.Derived, Derivd: dp}, entity, pk, false)
		p, ok := l.spells(c, &lw)
		if !ok {
			continue
		}
		value, count := p[0], p[1]
		if value.Op != engine.OpEq || !value.Val.IsString() || count.Op != engine.OpGE || !count.Val.IsInt() {
			return nil
		}
		if _, ok := dp.LookupCode(value.Val.Str()); !ok {
			return nil
		}
		return &abduction.Filter{
			Kind: abduction.Derived, Derivd: dp, Unstored: true,
			Values: []string{value.Val.Str()}, Theta: int(count.Val.Int()),
		}
	}
	return nil
}

// spells reports whether c is lowering lw to the letter and returns c's
// predicates in lw's order. Every relation of a component is in one of
// its joins, so c walks lw's relations when it has as many and each of
// its joins is one of lw's, written either way round; each of lw's
// predicates is on its own column.
func (l *lifter) spells(c *component, lw *lowered) (preds [2]engine.Pred, ok bool) {
	if len(c.rels) != lw.nRel-1 || len(c.joins) != lw.nJoin || len(c.preds) != lw.nPred {
		return preds, false
	}
	var matched [len(lw.joins)]bool
	for _, ji := range c.joins {
		k := slices.IndexFunc(lw.joins[:lw.nJoin], func(w loweredJoin) bool {
			return joins(l.q.Joins[ji], lw.rels[w.l], w.lcol, lw.rels[w.r], w.rcol)
		})
		if k < 0 || matched[k] {
			return preds, false
		}
		matched[k] = true
	}
	for k, w := range lw.preds[:lw.nPred] {
		i := slices.IndexFunc(c.preds, func(pi int) bool { return l.q.Preds[pi].Rel == lw.rels[w.rel] && l.q.Preds[pi].Col == w.col })
		if i < 0 {
			return preds, false
		}
		preds[k] = l.q.Preds[c.preds[i]]
	}
	return preds, true
}

// joins reports whether j is a.acol = b.bcol, written either way round.
func joins(j engine.Join, a, acol, b, bcol string) bool {
	return j == engine.Join{LeftRel: a, LeftCol: acol, RightRel: b, RightCol: bcol} ||
		j == engine.Join{LeftRel: b, LeftCol: bcol, RightRel: a, RightCol: acol}
}

// direct returns the entity's property on its own column col, of the
// given kind; nil when there is none.
func (l *lifter) direct(col string, kind adb.PropKind) *adb.BasicProperty {
	for _, bp := range l.info.Basic {
		if bp.Access.Type == adb.Direct && bp.Access.Column == col && bp.Kind == kind {
			return bp
		}
	}
	return nil
}

// categorical returns the filter p spells on bp's value column: = or IN
// over TEXT operands the property's dictionary holds, sorted and
// distinct as a context's values are.
func categorical(bp *adb.BasicProperty, p engine.Pred) *abduction.Filter {
	operands := p.Vals
	switch {
	case bp == nil:
		return nil
	case p.Op == engine.OpEq:
		operands = []relation.Value{p.Val}
	case p.Op != engine.OpIn || len(operands) == 0:
		return nil
	}
	values := make([]string, len(operands))
	for i, v := range operands {
		if !v.IsString() {
			return nil
		}
		if _, ok := bp.LookupCode(v.Str()); !ok {
			return nil
		}
		values[i] = v.Str()
	}
	slices.Sort(values)
	return &abduction.Filter{Kind: abduction.BasicCategorical, Basic: bp, Unstored: true, Values: slices.Compact(values)}
}

// numeric returns the range filter the pair col >= lo, col <= hi spells
// on a direct numeric property. The executor compares as Value.Less
// does, which puts a NaN cell inside every range, and the property's
// statistics leave a NaN cell out: a DOUBLE column is lifted only when
// every row of it holds a value.
func (l *lifter) numeric(lo, hi engine.Pred) *abduction.Filter {
	bp := l.direct(lo.Col, adb.Numeric)
	if bp == nil {
		return nil
	}
	for _, v := range []relation.Value{lo.Val, hi.Val} {
		if v.IsNull() || v.IsString() || v.Float() != v.Float() {
			return nil
		}
	}
	if _, _, n := bp.NumRange(); l.info.Rel().Column(lo.Col).Type != relation.Int && n != bp.NumEntities() {
		return nil
	}
	return &abduction.Filter{Kind: abduction.BasicNumeric, Basic: bp, Unstored: true, Lo: lo.Val.Float(), Hi: hi.Val.Float()}
}
