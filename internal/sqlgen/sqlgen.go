// Package sqlgen renders abduced queries as SQL text, in both forms the
// paper presents: the SPJ form over the αDB's derived relations (Q5) and
// the equivalent SPJAI form over the original schema with GROUP BY /
// HAVING for derived filters (Q4). It also lowers abduced queries to
// engine.Query plans so they can be executed for runtime comparisons
// (Fig 11).
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

// AlphaSQL renders the abduced query in the αDB SPJ form (paper Q5):
// derived filters become predicates over the materialized derived
// relations.
func AlphaSQL(res *abduction.Result) string {
	s := newStmt(res)
	for _, f := range orderedFilters(res.Filters) {
		switch f.Kind {
		case abduction.BasicNumeric:
			s.rangePreds(f)
		case abduction.BasicCategorical:
			s.basicCategorical(f)
		case abduction.Derived:
			alias := s.aliasFor(f.Derivd.RelName, true)
			s.join(s.from[0], s.pk, alias, "entity_id")
			s.conjunct().col(alias, "value").str(" = ").quoted(f.Value())
			s.conjunct().col(alias, "count").str(" >= ")
			if f.NormUse {
				s.float(f.ThetaN, 'f', 3).str(" * degree(").col(s.from[0], s.pk).str(")")
			} else {
				s.int(f.Theta)
			}
		}
	}
	var b strings.Builder
	s.writeTo(&b)
	return b.String()
}

// OriginalSQL renders the abduced query in the original-schema SPJAI
// form (paper Q4): derived filters expand to fact-table joins with
// GROUP BY / HAVING count(*). Multiple derived filters render as an
// INTERSECT of per-filter blocks, since each needs its own aggregation.
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
	block := func(basics []*abduction.Filter, derived *abduction.Filter) {
		s.reset()
		for _, f := range basics {
			switch f.Kind {
			case abduction.BasicNumeric:
				s.rangePreds(f)
			case abduction.BasicCategorical:
				s.basicCategorical(f)
			}
		}
		if derived != nil {
			s.derivedJoins(derived)
		}
		s.writeTo(&b)
		if derived != nil {
			b.WriteString("\nGROUP BY ")
			b.WriteString(s.entity)
			b.WriteByte('.')
			b.WriteString(s.pk)
			b.WriteString("\nHAVING count(*) >= ")
			if derived.NormUse {
				var num [32]byte
				b.Write(strconv.AppendFloat(num[:0], derived.ThetaN, 'f', 3, 64))
				b.WriteString(" * total(")
				b.WriteString(s.entity)
				b.WriteByte('.')
				b.WriteString(s.pk)
				b.WriteByte(')')
			} else {
				b.WriteString(strconv.Itoa(derived.Theta))
			}
		}
	}

	if len(deriveds) == 0 {
		block(basics, nil)
	}
	for i, d := range deriveds {
		if i == 0 {
			block(basics, d)
			continue
		}
		// Later blocks carry only the derived condition; basics are
		// already enforced by the first block of the intersection.
		b.WriteString("\nINTERSECT\n")
		block(nil, d)
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
// to FROM; repeated use of a multi-valued relation gets a fresh alias,
// since two value predicates on one instance would be unsatisfiable.
func (s *stmt) aliasFor(name string, needAlias bool) fromItem {
	it := fromItem{name: name}
	if !slices.Contains(s.from, it) {
		s.from = append(s.from, it)
		return it
	}
	if !needAlias {
		return it
	}
	it.alias = len(s.from)
	s.from = append(s.from, it)
	return it
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

// join adds the conjunct l.lcol = r.rcol.
func (s *stmt) join(l fromItem, lcol string, r fromItem, rcol string) {
	s.conjunct().col(l, lcol).str(" = ").col(r, rcol)
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

// rangePreds adds the two bounds of a basic numeric filter.
func (s *stmt) rangePreds(f *abduction.Filter) {
	col := f.Basic.Access.Column
	s.conjunct().col(s.from[0], col).str(" >= ").float(f.Lo, 'g', -1)
	s.conjunct().col(s.from[0], col).str(" <= ").float(f.Hi, 'g', -1)
}

// basicCategorical adds the predicate (and joins) of a basic categorical
// filter, routing by access path; multi-valued access paths request a
// fresh alias on reuse so each filter constrains its own join instance.
func (s *stmt) basicCategorical(f *abduction.Filter) {
	a := f.Basic.Access
	entity := s.from[0]
	switch a.Type {
	case adb.Direct:
		s.valuePred(entity, a.Column, f.Values)
	case adb.FKDim:
		dim := s.aliasFor(a.Dim, false)
		s.join(entity, a.Column, dim, a.DimPK)
		s.valuePred(dim, a.DimValueCol, f.Values)
	case adb.FactDim:
		fact := s.aliasFor(a.Fact, true)
		dim := s.aliasFor(a.Dim, true)
		s.join(entity, s.pk, fact, a.FactEntityCol)
		s.join(fact, a.FactDimCol, dim, a.DimPK)
		s.valuePred(dim, a.DimValueCol, f.Values)
	case adb.AttrTable:
		fact := s.aliasFor(a.Fact, true)
		s.join(entity, s.pk, fact, a.FactEntityCol)
		s.valuePred(fact, a.Column, f.Values)
	}
}

// derivedJoins expands a derived filter over the original schema: the
// fact table to the associated entity, then the path to the aggregated
// value. The count threshold is the block's HAVING clause.
func (s *stmt) derivedJoins(f *abduction.Filter) {
	d := f.Derivd
	entity := s.from[0]
	fact1 := s.aliasFor(d.Fact1, false)
	s.join(entity, s.pk, fact1, d.Fact1EntityCol)
	t := d.Target
	switch t.Type {
	case adb.Degree:
		// Count distinct associated entities; the join itself
		// suffices.
	case adb.Direct:
		via := s.aliasFor(d.Via, false)
		s.join(fact1, d.Fact1ViaCol, via, d.ViaPK)
		s.conjunct().col(via, t.Column).str(" = ").quoted(f.Value())
	case adb.FKDim:
		via := s.aliasFor(d.Via, false)
		dim := s.aliasFor(t.Dim, false)
		s.join(fact1, d.Fact1ViaCol, via, d.ViaPK)
		s.join(via, t.Column, dim, t.DimPK)
		s.conjunct().col(dim, t.DimValueCol).str(" = ").quoted(f.Value())
	case adb.FactDim:
		fact2 := s.aliasFor(t.Fact, false)
		dim := s.aliasFor(t.Dim, false)
		s.join(fact1, d.Fact1ViaCol, fact2, t.FactEntityCol)
		s.join(fact2, t.FactDimCol, dim, t.DimPK)
		s.conjunct().col(dim, t.DimValueCol).str(" = ").quoted(f.Value())
	}
}

// writeTo lays the block out: SELECT, the FROM list, the conjuncts.
func (s *stmt) writeTo(b *strings.Builder) {
	n := len("SELECT .\nFROM \nWHERE ") + len(s.entity) + len(s.attr) + len(s.where)
	for _, it := range s.from {
		n += 2*len(it.name) + len(" AS _00, ")
	}
	b.Grow(n)
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
	entity := res.Base.Entity
	seenRel := map[string]bool{entity: true}
	countRel := func(name string) {
		if !seenRel[name] {
			seenRel[name] = true
			joins++
		}
	}
	for _, f := range res.Filters {
		switch f.Kind {
		case abduction.BasicNumeric:
			selections += 2
		case abduction.BasicCategorical:
			a := f.Basic.Access
			switch a.Type {
			case adb.FKDim:
				countRel(a.Dim)
			case adb.FactDim:
				countRel(a.Fact)
				countRel(a.Dim)
			case adb.AttrTable:
				countRel(a.Fact)
			}
			selections++
		case abduction.Derived:
			countRel(f.Derivd.RelName)
			selections += 2 // value equality + count threshold
		}
	}
	return joins, selections
}

// ToEngineQuery lowers the abduced query to an executable engine plan
// over the αDB's combined database (original + derived relations).
// Filters that would need a second instance of an already-joined
// relation become INTERSECT branches, preserving entity-set semantics;
// a filter no join expresses — a normalized strength threshold, an
// association that leads back into the entity relation itself — is
// lowered to its own αDB row set, as a key IN (...) predicate.
func ToEngineQuery(res *abduction.Result) *engine.Query {
	entity := res.Base.Entity
	pk := res.EntityInfo().PK
	root := newBranch(entity, res.Base.Attr)

	branches := []*branchBuilder{root}
	for _, f := range orderedFilters(res.Filters) {
		placed := false
		for _, b := range branches {
			if b.tryAdd(f, pk) {
				placed = true
				break
			}
		}
		if !placed {
			if nb := newBranch(entity, res.Base.Attr); nb.tryAdd(f, pk) {
				branches = append(branches, nb)
			} else {
				root.q.Preds = append(root.q.Preds, keyPred(res.EntityInfo(), f))
			}
		}
	}
	q := branches[0].q
	for _, b := range branches[1:] {
		q.Intersect = append(q.Intersect, b.q)
	}
	return q
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

// branchBuilder accumulates one SPJ block; a filter that needs a relation
// the block already uses (with a different condition) is rejected and
// goes to a new block.
type branchBuilder struct {
	q    *engine.Query
	used map[string]bool
}

func newBranch(entity, attr string) *branchBuilder {
	return &branchBuilder{
		q: &engine.Query{
			From:     []string{entity},
			Select:   []engine.ColRef{{Rel: entity, Col: attr}},
			Distinct: true,
		},
		used: map[string]bool{entity: true},
	}
}

// tryAdd attempts to add the filter's joins and predicates to the block.
func (b *branchBuilder) tryAdd(f *abduction.Filter, pk string) bool {
	entity := b.q.From[0]
	switch f.Kind {
	case abduction.BasicNumeric:
		col := f.Basic.Access.Column
		b.q.Preds = append(b.q.Preds,
			engine.Pred{Rel: entity, Col: col, Op: engine.OpGE, Val: relation.FloatVal(f.Lo)},
			engine.Pred{Rel: entity, Col: col, Op: engine.OpLE, Val: relation.FloatVal(f.Hi)})
		return true
	case abduction.BasicCategorical:
		a := f.Basic.Access
		pred := func(rel, col string) engine.Pred {
			if len(f.Values) == 1 {
				return engine.Pred{Rel: rel, Col: col, Op: engine.OpEq, Val: relation.StringVal(f.Values[0])}
			}
			vals := make([]relation.Value, len(f.Values))
			for i, v := range f.Values {
				vals[i] = relation.StringVal(v)
			}
			return engine.Pred{Rel: rel, Col: col, Op: engine.OpIn, Vals: vals}
		}
		switch a.Type {
		case adb.Direct:
			b.q.Preds = append(b.q.Preds, pred(entity, a.Column))
			return true
		case adb.FKDim:
			if b.used[a.Dim] {
				return false
			}
			b.addRel(a.Dim)
			b.q.Joins = append(b.q.Joins, engine.Join{LeftRel: entity, LeftCol: a.Column, RightRel: a.Dim, RightCol: a.DimPK})
			b.q.Preds = append(b.q.Preds, pred(a.Dim, a.DimValueCol))
			return true
		case adb.FactDim:
			if b.used[a.Fact] || b.used[a.Dim] {
				return false
			}
			b.addRel(a.Fact)
			b.addRel(a.Dim)
			b.q.Joins = append(b.q.Joins,
				engine.Join{LeftRel: entity, LeftCol: pk, RightRel: a.Fact, RightCol: a.FactEntityCol},
				engine.Join{LeftRel: a.Fact, LeftCol: a.FactDimCol, RightRel: a.Dim, RightCol: a.DimPK})
			b.q.Preds = append(b.q.Preds, pred(a.Dim, a.DimValueCol))
			return true
		case adb.AttrTable:
			if b.used[a.Fact] {
				return false
			}
			b.addRel(a.Fact)
			b.q.Joins = append(b.q.Joins, engine.Join{LeftRel: entity, LeftCol: pk, RightRel: a.Fact, RightCol: a.FactEntityCol})
			b.q.Preds = append(b.q.Preds, pred(a.Fact, a.Column))
			return true
		}
		return false
	case abduction.Derived:
		rel := f.Derivd.RelName
		if f.NormUse || b.used[rel] {
			// A normalized threshold is not expressible as a count
			// predicate: ToEngineQuery lowers it to the filter's row set.
			return false
		}
		b.addRel(rel)
		b.q.Joins = append(b.q.Joins, engine.Join{LeftRel: entity, LeftCol: pk, RightRel: rel, RightCol: "entity_id"})
		b.q.Preds = append(b.q.Preds,
			engine.Pred{Rel: rel, Col: "value", Op: engine.OpEq, Val: relation.StringVal(f.Value())},
			engine.Pred{Rel: rel, Col: "count", Op: engine.OpGE, Val: relation.IntVal(int64(f.Theta))})
		return true
	}
	return false
}

func (b *branchBuilder) addRel(name string) {
	b.used[name] = true
	b.q.From = append(b.q.From, name)
}
