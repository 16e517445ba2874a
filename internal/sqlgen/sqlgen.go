// Package sqlgen renders abduced queries as SQL text, in both forms the
// paper presents: the SPJ form over the αDB's derived relations (Q5) and
// the equivalent SPJAI form over the original schema with GROUP BY /
// HAVING for derived filters (Q4). It also lowers abduced queries to
// engine.Query plans so they can be executed for runtime comparisons
// (Fig 11), and reads such plans back into filters (Reduce).
//
// One lowering, two printers, one plan: lower maps a filter's access path
// to the relations it walks, the joins that tie them and its predicates.
// AlphaSQL and OriginalSQL print those pieces through one alias-aware
// block printer, ToEngineQuery places them in plan blocks, PredicateCount
// counts them, and liftFilters matches a plan's components against them,
// so no access path is spelled twice.
package sqlgen

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/engine"
	"squid/internal/relation"
)

// lowered is what one filter adds to a block: the relations it walks,
// the joins that tie them to the entity and to each other, and its
// predicates, which every form writes after the joins. Joins and
// predicates name a relation by its index in rels, whose first entry is
// the block's entity relation. A caller refills one on its stack for
// each filter: lowering allocates nothing.
type lowered struct {
	rels               [4]string
	joins              [3]loweredJoin
	preds              [2]loweredPred
	nRel, nJoin, nPred int
	// own asks for the filter's own instance of each relation it walks,
	// even one the block already joins: two value predicates on one
	// instance of a multi-valued relation are unsatisfiable, and a derived
	// walk shares no row with the block's basic filters. A basic filter's
	// FK dimension (one row per entity) is shared.
	own bool
}

type loweredJoin struct {
	l, r       int
	lcol, rcol string
}

// loweredPred compares a relation's column with the operand of the
// filter op names.
type loweredPred struct {
	rel int
	col string
	op  predOp
}

type predOp uint8

const (
	opValues predOp = iota // = v, or IN (...) for a disjunction
	opLo                   // >= Lo
	opHi                   // <= Hi
	opCount                // >= θ, or θn of the entity's degree
)

// lower sets l to the pieces filter f, over the entity relation keyed by
// pk, adds to a block. For a derived filter, walk picks its walk over the
// original schema (Q4: fact1, then its target's access path; the
// threshold is the block's HAVING) over its αDB form (Q5: the derived
// relation's value and count). An access path starts at an anchor, a
// relation and its key column: a basic filter's is the entity by its
// primary key; a walk's is fact1 by its via column, with the via relation
// joined in for the columns of a Direct or FKDim target.
func (l *lowered) lower(f *abduction.Filter, entity, pk string, walk bool) {
	l.own = walk || f.Kind == abduction.Derived || f.Basic.MultiValued
	l.rels[0], l.nRel, l.nJoin, l.nPred = entity, 1, 0, 0
	at, key := 0, pk
	var a *adb.AccessPath
	var via, viaPK string
	if f.Kind != abduction.Derived {
		a = &f.Basic.Access
	} else if d := f.Derivd; walk {
		a, at, key, via, viaPK = &d.Target, l.rel(d.Fact1), d.Fact1ViaCol, d.Via, d.ViaPK
		l.join(0, pk, at, d.Fact1EntityCol)
	}
	switch {
	case f.Kind == abduction.Derived && !walk:
		rel := l.rel(f.Derivd.RelName)
		l.join(0, pk, rel, "entity_id")
		l.pred(rel, "value", opValues)
		l.pred(rel, "count", opCount)
	case f.Kind == abduction.BasicNumeric:
		l.pred(0, a.Column, opLo)
		l.pred(0, a.Column, opHi)
	case a.Type == adb.Direct:
		l.pred(l.row(at, key, via, viaPK), a.Column, opValues)
	case a.Type == adb.FKDim:
		row := l.row(at, key, via, viaPK)
		dim := l.rel(a.Dim)
		l.join(row, a.Column, dim, a.DimPK)
		l.pred(dim, a.DimValueCol, opValues)
	case a.Type == adb.FactDim:
		fact, dim := l.rel(a.Fact), l.rel(a.Dim)
		l.join(at, key, fact, a.FactEntityCol)
		l.join(fact, a.FactDimCol, dim, a.DimPK)
		l.pred(dim, a.DimValueCol, opValues)
	case a.Type == adb.AttrTable:
		fact := l.rel(a.Fact)
		l.join(at, key, fact, a.FactEntityCol)
		l.pred(fact, a.Column, opValues)
	case a.Type == adb.Degree:
		// Nothing: a walk's rows to fact1 are its count.
	}
}

// row returns the relation holding the anchor row's columns: the anchor
// itself, or the via relation joined to the anchor's key.
func (l *lowered) row(at int, key, via, viaPK string) int {
	if via == "" {
		return at
	}
	v := l.rel(via)
	l.join(at, key, v, viaPK)
	return v
}

func (l *lowered) rel(name string) int {
	l.rels[l.nRel] = name
	l.nRel++
	return l.nRel - 1
}

func (l *lowered) join(a int, acol string, b int, bcol string) {
	l.joins[l.nJoin] = loweredJoin{l: a, lcol: acol, r: b, rcol: bcol}
	l.nJoin++
}

func (l *lowered) pred(rel int, col string, op predOp) {
	l.preds[l.nPred] = loweredPred{rel: rel, col: col, op: op}
	l.nPred++
}

// fits reports whether l walks no relation of from.
func (l *lowered) fits(from []string) bool {
	return !slices.ContainsFunc(l.rels[1:l.nRel], func(r string) bool { return slices.Contains(from, r) })
}

// AlphaSQL renders the abduced query in the αDB SPJ form (paper Q5):
// derived filters become predicates over the materialized derived
// relations.
func AlphaSQL(res *abduction.Result) string {
	s := newStmt(res)
	var l lowered
	for _, f := range orderedFilters(res.Filters) {
		l.lower(f, s.entity, s.pk, false)
		s.add(&l, f)
	}
	var b strings.Builder
	s.writeTo(&b, 1)
	return b.String()
}

// OriginalSQL renders the abduced query in the original-schema SPJAI
// form (paper Q4): a derived filter walks the fact tables to its value
// under GROUP BY / HAVING count(*), one block per derived filter, and the
// blocks INTERSECT. The single-valued basic filters ride in the first
// derived block; a multi-valued one (a fact or attribute table) would
// multiply count(*) there, so those get a block of their own ahead of
// the derived ones.
func OriginalSQL(res *abduction.Result) string {
	filters := orderedFilters(res.Filters)
	// orderedFilters puts the basic filters first.
	nBasic := 0
	for nBasic < len(filters) && filters[nBasic].Kind != abduction.Derived {
		nBasic++
	}
	basics, deriveds := filters[:nBasic], filters[nBasic:]

	s := newStmt(res)
	var b strings.Builder
	// block prints one SELECT: the single- and/or the multi-valued basic
	// filters, and derived's walk under GROUP BY / HAVING. It grows b for
	// blocks blocks of its size.
	block := func(single, multi bool, derived *abduction.Filter, blocks int) {
		if b.Len() > 0 {
			b.WriteString("\nINTERSECT\n")
		}
		s.reset()
		var l lowered
		for _, f := range basics {
			if f.Basic.MultiValued && multi || !f.Basic.MultiValued && single {
				l.lower(f, s.entity, s.pk, false)
				s.add(&l, f)
			}
		}
		if derived != nil {
			// The walk always joins, so the conjuncts are not empty.
			l.lower(derived, s.entity, s.pk, true)
			s.add(&l, derived)
			s.str("\nGROUP BY ").col(s.from[0], s.pk).str("\nHAVING count(*) >= ").threshold(derived, "total")
		}
		s.writeTo(&b, blocks)
	}
	switch {
	case len(deriveds) == 0:
		block(true, true, nil, 1)
	case slices.ContainsFunc(basics, func(f *abduction.Filter) bool { return f.Basic.MultiValued }):
		// The multi-valued basics' block grows b for the derived blocks
		// that follow it too.
		block(false, true, nil, 1+len(deriveds))
	}
	for i, d := range deriveds {
		// Later blocks carry only the derived condition; basics are
		// already enforced by the first block of the intersection.
		block(i == 0, false, d, 1)
	}
	return b.String()
}

// stmt accumulates one SELECT block. The FROM list and the WHERE
// conjuncts grow together while the filters are walked (a filter's
// access path brings its relations), so the conjuncts are appended to a
// byte buffer as they come and writeTo lays the block out into the
// statement's builder: no string is formatted or joined per clause.
type stmt struct {
	entity, pk, attr string
	from             []fromItem
	where            []byte
	// The usual block fits these, so a statement's scratch is the one
	// allocation of its stmt.
	fromBuf  [6]fromItem
	whereBuf [480]byte
}

// fromItem is one entry of the FROM list, which is also how a predicate
// names it: by the relation's name, or as name_<alias> when a relation
// is joined a second time.
type fromItem struct {
	name  string
	alias int // 0 = none
}

func newStmt(res *abduction.Result) *stmt {
	s := &stmt{entity: res.Base.Entity, pk: res.EntityInfo().PK, attr: res.Base.Attr}
	s.from, s.where = s.fromBuf[:0], s.whereBuf[:0]
	s.reset()
	return s
}

// reset empties the block down to the entity relation.
func (s *stmt) reset() {
	s.from = append(s.from[:0], fromItem{name: s.entity})
	s.where = s.where[:0]
}

// aliasFor returns the FROM item to reference a relation by, adding it
// to FROM; a filter that asks for its own instance of a relation the
// block already joins gets a fresh alias.
func (s *stmt) aliasFor(name string, own bool) fromItem {
	it := fromItem{name: name}
	if !slices.Contains(s.from, it) {
		s.from = append(s.from, it)
		return it
	}
	if !own {
		return it
	}
	it.alias = len(s.from)
	s.from = append(s.from, it)
	return it
}

// add prints what l, filter f's lowering, adds to the block: each
// relation it walks joins FROM, then its joins and predicates become
// conjuncts over f's operands.
func (s *stmt) add(l *lowered, f *abduction.Filter) {
	items := [len(l.rels)]fromItem{s.from[0]}
	for i := 1; i < l.nRel; i++ {
		items[i] = s.aliasFor(l.rels[i], l.own)
	}
	for _, j := range l.joins[:l.nJoin] {
		s.conjunct().col(items[j.l], j.lcol).str(" = ").col(items[j.r], j.rcol)
	}
	for _, p := range l.preds[:l.nPred] {
		it := items[p.rel]
		switch p.op {
		case opValues:
			s.valuePred(it, p.col, f.Values)
		case opLo:
			s.conjunct().col(it, p.col).str(" >= ").float(f.Lo, 'g', -1)
		case opHi:
			s.conjunct().col(it, p.col).str(" <= ").float(f.Hi, 'g', -1)
		case opCount:
			s.conjunct().col(it, p.col).str(" >= ").threshold(f, "degree")
		}
	}
}

// threshold appends derived filter f's strength threshold: θ, or θn
// times fn of the entity.
func (s *stmt) threshold(f *abduction.Filter, fn string) *stmt {
	if !f.NormUse {
		return s.int(f.Theta)
	}
	return s.float(f.ThetaN, 'f', 3).str(" * ").str(fn).str("(").col(s.from[0], s.pk).str(")")
}

// conjunct starts the next WHERE conjunct.
func (s *stmt) conjunct() *stmt {
	if len(s.where) > 0 {
		s.where = append(s.where, "\n  AND "...)
	}
	return s
}

func (s *stmt) str(x string) *stmt {
	s.where = append(s.where, x...)
	return s
}

// col appends it.col, naming the item by its alias when it has one.
func (s *stmt) col(it fromItem, col string) *stmt {
	s.where = append(s.where, it.name...)
	if it.alias != 0 {
		s.where = append(s.where, '_')
		s.where = strconv.AppendInt(s.where, int64(it.alias), 10)
	}
	s.where = append(s.where, '.')
	s.where = append(s.where, col...)
	return s
}

// quoted appends v as a SQL string literal (a quote inside it doubled).
func (s *stmt) quoted(v string) *stmt {
	s.where = append(s.where, '\'')
	for {
		i := strings.IndexByte(v, '\'')
		if i < 0 {
			break
		}
		s.where = append(s.where, v[:i+1]...)
		s.where = append(s.where, '\'')
		v = v[i+1:]
	}
	s.where = append(s.where, v...)
	s.where = append(s.where, '\'')
	return s
}

func (s *stmt) int(n int) *stmt {
	s.where = strconv.AppendInt(s.where, int64(n), 10)
	return s
}

func (s *stmt) float(v float64, format byte, prec int) *stmt {
	s.where = strconv.AppendFloat(s.where, v, format, prec, 64)
	return s
}

// valuePred adds the conjunct it.col = 'v', or it.col IN (...) for a
// disjunctive filter.
func (s *stmt) valuePred(it fromItem, col string, values []string) {
	s.conjunct().col(it, col)
	if len(values) == 1 {
		s.str(" = ").quoted(values[0])
		return
	}
	s.str(" IN (")
	for i, v := range values {
		if i > 0 {
			s.str(", ")
		}
		s.quoted(v)
	}
	s.str(")")
}

// writeTo lays the block out: SELECT, the FROM list, the conjuncts,
// having grown b for blocks blocks of this one's size.
func (s *stmt) writeTo(b *strings.Builder, blocks int) {
	n := len("SELECT .\nFROM \nWHERE ") + len(s.entity) + len(s.attr) + len(s.where)
	for _, it := range s.from {
		n += 2*len(it.name) + len(" AS _00, ")
	}
	b.Grow(n * blocks)
	b.WriteString("SELECT ")
	b.WriteString(s.entity)
	b.WriteByte('.')
	b.WriteString(s.attr)
	b.WriteString("\nFROM ")
	for i, it := range s.from {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.name)
		if it.alias != 0 {
			b.WriteString(" AS ")
			b.WriteString(it.name)
			b.WriteByte('_')
			b.WriteString(strconv.Itoa(it.alias))
		}
	}
	if len(s.where) > 0 {
		b.WriteString("\nWHERE ")
		b.Write(s.where)
	}
}

// orderedFilters returns filters sorted for deterministic SQL: basics
// first, then derived, alphabetical by attribute and value.
func orderedFilters(fs []*abduction.Filter) []*abduction.Filter {
	out := slices.Clone(fs)
	slices.SortStableFunc(out, func(a, b *abduction.Filter) int {
		if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
			return c
		}
		if c := strings.Compare(a.Attr(), b.Attr()); c != 0 {
			return c
		}
		return strings.Compare(a.Value(), b.Value())
	})
	return out
}

// PredicateCount reports the number of join and selection predicates of
// the abduced query in its αDB SPJ form — the "#Predicates" metric of
// Figs 14/15. Joins contributed by filter access paths are counted once
// per distinct joined relation.
func PredicateCount(res *abduction.Result) (joins, selections int) {
	entity, pk := res.Base.Entity, res.EntityInfo().PK
	var buf [16]string
	seen := append(buf[:0], entity)
	var l lowered
	for _, f := range res.Filters {
		l.lower(f, entity, pk, false)
		for _, r := range l.rels[1:l.nRel] {
			if !slices.Contains(seen, r) {
				seen = append(seen, r)
				joins++
			}
		}
		selections += l.nPred
	}
	return joins, selections
}

// ToEngineQuery lowers the abduced query to an executable engine plan
// over the αDB's combined database (original + derived relations). A
// filter goes to the first block that joins none of the relations it
// walks, and one that fits no block opens an INTERSECT branch,
// preserving entity-set semantics; a filter no join expresses — a
// normalized strength threshold, an association that leads back into the
// entity relation itself — is lowered to its own αDB row set, as a key
// IN (...) predicate.
func ToEngineQuery(res *abduction.Result) *engine.Query {
	info, entity := res.EntityInfo(), res.Base.Entity
	newBlock := func() *engine.Query {
		return &engine.Query{From: []string{entity}, Select: []engine.ColRef{{Rel: entity, Col: res.Base.Attr}}, Distinct: true}
	}
	q := newBlock()
	var l lowered
	for _, f := range orderedFilters(res.Filters) {
		l.lower(f, entity, info.PK, false)
		if f.NormUse || !l.fits(q.From[:1]) {
			q.Preds = append(q.Preds, keyPred(info, f))
			continue
		}
		b := q
		if !l.fits(q.From) {
			i := slices.IndexFunc(q.Intersect, func(b *engine.Query) bool { return l.fits(b.From) })
			if i < 0 {
				i = len(q.Intersect)
				q.Intersect = append(q.Intersect, newBlock())
			}
			b = q.Intersect[i]
		}
		l.place(b, f)
	}
	return q
}

// place adds l, filter f's lowering, to plan block q: its relations to
// FROM, its joins, and its predicates over f's operands.
func (l *lowered) place(q *engine.Query, f *abduction.Filter) {
	q.From = append(q.From, l.rels[1:l.nRel]...)
	for _, j := range l.joins[:l.nJoin] {
		q.Joins = append(q.Joins, engine.Join{LeftRel: l.rels[j.l], LeftCol: j.lcol, RightRel: l.rels[j.r], RightCol: j.rcol})
	}
	for _, p := range l.preds[:l.nPred] {
		pred := engine.Pred{Rel: l.rels[p.rel], Col: p.col, Op: engine.OpGE}
		switch p.op {
		case opValues:
			if len(f.Values) == 1 {
				pred.Op, pred.Val = engine.OpEq, relation.StringVal(f.Values[0])
				break
			}
			pred.Op, pred.Vals = engine.OpIn, make([]relation.Value, len(f.Values))
			for i, v := range f.Values {
				pred.Vals[i] = relation.StringVal(v)
			}
		case opLo:
			pred.Val = relation.FloatVal(f.Lo)
		case opHi:
			pred.Op, pred.Val = engine.OpLE, relation.FloatVal(f.Hi)
		case opCount:
			pred.Val = relation.IntVal(int64(f.Theta))
		}
		q.Preds = append(q.Preds, pred)
	}
}

// keyPred is the filter as a predicate over the entity's primary key:
// the keys of the rows in the filter's αDB row set.
func keyPred(info *adb.EntityInfo, f *abduction.Filter) engine.Pred {
	rows := f.RowSet().ToSorted()
	keys := make([]relation.Value, len(rows))
	for i, row := range rows {
		keys[i] = relation.IntVal(info.IDByRow(row))
	}
	return engine.Pred{Rel: info.Relation, Col: info.PK, Op: engine.OpIn, Vals: keys}
}
