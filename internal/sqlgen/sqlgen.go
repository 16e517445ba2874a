// Package sqlgen renders abduced queries as SQL text, in both forms the
// paper presents: the SPJ form over the αDB's derived relations (Q5) and
// the equivalent SPJAI form over the original schema with GROUP BY /
// HAVING for derived filters (Q4). It also lowers abduced queries to
// engine.Query plans so they can be executed for runtime comparisons
// (Fig 11).
package sqlgen

import (
	"fmt"
	"sort"
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
	entity := res.Base.Entity
	pk := res.EntityInfo().PK

	from := []string{entity}
	var where []string
	seenRel := map[string]bool{entity: true}

	// aliasFor returns the name to reference a relation by, adding it to
	// FROM; repeated use of a multi-valued relation gets a fresh alias,
	// since two value predicates on one instance would be unsatisfiable.
	aliasFor := func(name string, needAlias bool) string {
		if !seenRel[name] {
			seenRel[name] = true
			from = append(from, name)
			return name
		}
		if !needAlias {
			return name
		}
		alias := fmt.Sprintf("%s_%d", name, len(from))
		from = append(from, fmt.Sprintf("%s AS %s", name, alias))
		return alias
	}

	for _, f := range orderedFilters(res.Filters) {
		switch f.Kind {
		case abduction.BasicNumeric:
			a := f.Basic.Access
			where = append(where,
				fmt.Sprintf("%s.%s >= %s", entity, a.Column, trimFloat(f.Lo)),
				fmt.Sprintf("%s.%s <= %s", entity, a.Column, trimFloat(f.Hi)))
		case abduction.BasicCategorical:
			where = append(where, basicCategoricalSQL(entity, pk, f, aliasFor)...)
		case abduction.Derived:
			alias := aliasFor(f.Derivd.RelName, true)
			where = append(where,
				fmt.Sprintf("%s.%s = %s.entity_id", entity, pk, alias),
				fmt.Sprintf("%s.value = %s", alias, quote(f.Value())))
			if f.NormUse {
				where = append(where, fmt.Sprintf("%s.count >= %.3f * degree(%s.%s)", alias, f.ThetaN, entity, pk))
			} else {
				where = append(where, fmt.Sprintf("%s.count >= %d", alias, f.Theta))
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s.%s\nFROM %s", entity, res.Base.Attr, strings.Join(from, ", "))
	if len(where) > 0 {
		fmt.Fprintf(&b, "\nWHERE %s", strings.Join(where, "\n  AND "))
	}
	return b.String()
}

// OriginalSQL renders the abduced query in the original-schema SPJAI
// form (paper Q4): derived filters expand to fact-table joins with
// GROUP BY / HAVING count(*). Multiple derived filters render as an
// INTERSECT of per-filter blocks, since each needs its own aggregation.
func OriginalSQL(res *abduction.Result) string {
	entity := res.Base.Entity
	pk := res.EntityInfo().PK

	var basics []*abduction.Filter
	var deriveds []*abduction.Filter
	for _, f := range orderedFilters(res.Filters) {
		if f.Kind == abduction.Derived {
			deriveds = append(deriveds, f)
		} else {
			basics = append(basics, f)
		}
	}

	block := func(derived *abduction.Filter) string {
		from := []string{entity}
		var where []string
		seenRel := map[string]bool{entity: true}
		addRel := func(name string) bool {
			if seenRel[name] {
				return false
			}
			seenRel[name] = true
			from = append(from, name)
			return true
		}
		aliasFor := func(name string, needAlias bool) string {
			if addRel(name) || !needAlias {
				return name
			}
			alias := fmt.Sprintf("%s_%d", name, len(from))
			from = append(from, fmt.Sprintf("%s AS %s", name, alias))
			return alias
		}
		for _, f := range basics {
			switch f.Kind {
			case abduction.BasicNumeric:
				where = append(where,
					fmt.Sprintf("%s.%s >= %s", entity, f.Basic.Access.Column, trimFloat(f.Lo)),
					fmt.Sprintf("%s.%s <= %s", entity, f.Basic.Access.Column, trimFloat(f.Hi)))
			case abduction.BasicCategorical:
				where = append(where, basicCategoricalSQL(entity, pk, f, aliasFor)...)
			}
		}
		var groupBy string
		if derived != nil {
			d := derived.Derivd
			addRel(d.Fact1)
			where = append(where, fmt.Sprintf("%s.%s = %s.%s", entity, pk, d.Fact1, d.Fact1EntityCol))
			via := d.Via
			switch d.Target.Type {
			case adb.Degree:
				// Count distinct associated entities; the join itself
				// suffices.
			case adb.Direct:
				addRel(via)
				where = append(where, fmt.Sprintf("%s.%s = %s.%s", d.Fact1, d.Fact1ViaCol, via, d.ViaPK))
				where = append(where, fmt.Sprintf("%s.%s = %s", via, d.Target.Column, quote(derived.Value())))
			case adb.FKDim:
				addRel(via)
				addRel(d.Target.Dim)
				where = append(where,
					fmt.Sprintf("%s.%s = %s.%s", d.Fact1, d.Fact1ViaCol, via, d.ViaPK),
					fmt.Sprintf("%s.%s = %s.%s", via, d.Target.Column, d.Target.Dim, d.Target.DimPK),
					fmt.Sprintf("%s.%s = %s", d.Target.Dim, d.Target.DimValueCol, quote(derived.Value())))
			case adb.FactDim:
				addRel(d.Target.Fact)
				addRel(d.Target.Dim)
				where = append(where,
					fmt.Sprintf("%s.%s = %s.%s", d.Fact1, d.Fact1ViaCol, d.Target.Fact, d.Target.FactEntityCol),
					fmt.Sprintf("%s.%s = %s.%s", d.Target.Fact, d.Target.FactDimCol, d.Target.Dim, d.Target.DimPK),
					fmt.Sprintf("%s.%s = %s", d.Target.Dim, d.Target.DimValueCol, quote(derived.Value())))
			}
			theta := fmt.Sprintf("%d", derived.Theta)
			if derived.NormUse {
				theta = fmt.Sprintf("%.3f * total(%s.%s)", derived.ThetaN, entity, pk)
			}
			groupBy = fmt.Sprintf("\nGROUP BY %s.%s\nHAVING count(*) >= %s", entity, pk, theta)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "SELECT %s.%s\nFROM %s", entity, res.Base.Attr, strings.Join(from, ", "))
		if len(where) > 0 {
			fmt.Fprintf(&b, "\nWHERE %s", strings.Join(where, "\n  AND "))
		}
		b.WriteString(groupBy)
		return b.String()
	}

	if len(deriveds) == 0 {
		return block(nil)
	}
	blocks := make([]string, 0, len(deriveds))
	for i, d := range deriveds {
		if i == 0 {
			blocks = append(blocks, block(d))
		} else {
			// Later blocks carry only the derived condition; basics are
			// already enforced by the first block of the intersection.
			saved := basics
			basics = nil
			blocks = append(blocks, block(d))
			basics = saved
		}
	}
	return strings.Join(blocks, "\nINTERSECT\n")
}

// basicCategoricalSQL emits the predicate (and joins) for a basic
// categorical filter, routing by access path. aliasFor registers a
// relation in FROM and returns the name to use; multi-valued access
// paths request a fresh alias on reuse so each filter constrains its
// own join instance.
func basicCategoricalSQL(entity, pk string, f *abduction.Filter, aliasFor func(name string, needAlias bool) string) []string {
	a := f.Basic.Access
	var out []string
	valuePred := func(col string) string {
		if len(f.Values) == 1 {
			return fmt.Sprintf("%s = %s", col, quote(f.Values[0]))
		}
		quoted := make([]string, len(f.Values))
		for i, v := range f.Values {
			quoted[i] = quote(v)
		}
		return fmt.Sprintf("%s IN (%s)", col, strings.Join(quoted, ", "))
	}
	switch a.Type {
	case adb.Direct:
		out = append(out, valuePred(entity+"."+a.Column))
	case adb.FKDim:
		dim := aliasFor(a.Dim, false)
		out = append(out,
			fmt.Sprintf("%s.%s = %s.%s", entity, a.Column, dim, a.DimPK),
			valuePred(dim+"."+a.DimValueCol))
	case adb.FactDim:
		fact := aliasFor(a.Fact, true)
		dim := aliasFor(a.Dim, true)
		out = append(out,
			fmt.Sprintf("%s.%s = %s.%s", entity, pk, fact, a.FactEntityCol),
			fmt.Sprintf("%s.%s = %s.%s", fact, a.FactDimCol, dim, a.DimPK),
			valuePred(dim+"."+a.DimValueCol))
	case adb.AttrTable:
		fact := aliasFor(a.Fact, true)
		out = append(out,
			fmt.Sprintf("%s.%s = %s.%s", entity, pk, fact, a.FactEntityCol),
			valuePred(fact+"."+a.Column))
	}
	return out
}

// orderedFilters returns filters sorted for deterministic SQL: basics
// first, then derived, alphabetical by attribute and value.
func orderedFilters(fs []*abduction.Filter) []*abduction.Filter {
	out := append([]*abduction.Filter(nil), fs...)
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := int(out[i].Kind), int(out[j].Kind)
		if ki != kj {
			return ki < kj
		}
		if out[i].Attr() != out[j].Attr() {
			return out[i].Attr() < out[j].Attr()
		}
		return out[i].Value() < out[j].Value()
	})
	return out
}

// quote renders a value as a SQL string literal (a quote inside it
// doubled).
func quote(v string) string { return relation.StringVal(v).SQLLiteral() }

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
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
