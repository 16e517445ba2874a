// Package engine implements the relational execution engine: logical
// select-project-join queries with optional group-by/count aggregation,
// HAVING, DISTINCT, and intersection (the SPJAI class of the paper,
// footnote 6: key-foreign-key joins and conjunctive predicates of the form
// attribute OP value with OP ∈ {=, ≥, ≤}). It executes both the
// ground-truth benchmark queries and the queries SQuID abduces.
package engine

import (
	"fmt"
	"strings"

	"squid/internal/relation"
)

// Op is a predicate comparison operator.
type Op int

const (
	// OpEq is attribute = value.
	OpEq Op = iota
	// OpGE is attribute ≥ value.
	OpGE
	// OpLE is attribute ≤ value.
	OpLE
	// OpIn is attribute ∈ values (the paper's optional disjunction
	// support for categorical attributes, §3.1 footnote 7).
	OpIn
	// OpGT is attribute > value (strict variant beyond the paper's
	// {=, ≥, ≤} class, for external workloads).
	OpGT
	// OpLT is attribute < value.
	OpLT
)

// String renders the operator in SQL syntax.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpGE:
		return ">="
	case OpLE:
		return "<="
	case OpIn:
		return "IN"
	case OpGT:
		return ">"
	case OpLT:
		return "<"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ColRef names a column of a relation participating in a query.
type ColRef struct {
	Rel string
	Col string
}

// String renders rel.col.
func (c ColRef) String() string { return c.Rel + "." + c.Col }

// Pred is a conjunctive selection predicate.
type Pred struct {
	Rel  string
	Col  string
	Op   Op
	Val  relation.Value   // operand for OpEq/OpGE/OpLE
	Vals []relation.Value // operands for OpIn
}

// String renders the predicate in SQL syntax.
func (p Pred) String() string {
	if p.Op == OpIn {
		parts := make([]string, len(p.Vals))
		for i, v := range p.Vals {
			parts[i] = v.SQLLiteral()
		}
		return fmt.Sprintf("%s.%s IN (%s)", p.Rel, p.Col, strings.Join(parts, ", "))
	}
	return fmt.Sprintf("%s.%s %s %s", p.Rel, p.Col, p.Op, p.Val.SQLLiteral())
}

// Matches evaluates the predicate against a value (NULL never matches).
func (p Pred) Matches(v relation.Value) bool {
	if v.IsNull() {
		return false
	}
	switch p.Op {
	case OpEq:
		return v.Equal(p.Val)
	case OpGE:
		return !v.Less(p.Val)
	case OpLE:
		return !p.Val.Less(v)
	case OpIn:
		for _, cand := range p.Vals {
			if v.Equal(cand) {
				return true
			}
		}
		return false
	case OpGT:
		return p.Val.Less(v)
	case OpLT:
		return v.Less(p.Val)
	}
	return false
}

// Join is an equi-join condition between two relations (always a
// key-foreign-key edge in SQuID's query class).
type Join struct {
	LeftRel  string
	LeftCol  string
	RightRel string
	RightCol string
}

// String renders the join condition in SQL syntax.
func (j Join) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", j.LeftRel, j.LeftCol, j.RightRel, j.RightCol)
}

// Query is a logical SPJAI query.
type Query struct {
	// From lists the participating relations; the first is the anchor
	// (usually the entity relation the examples come from).
	From []string
	// Joins are the equi-join conditions connecting From relations.
	Joins []Join
	// Preds are conjunctive selection predicates.
	Preds []Pred
	// Select is the projection list.
	Select []ColRef
	// Distinct deduplicates the projected tuples.
	Distinct bool
	// GroupBy, when non-empty, groups joined rows by these columns;
	// the projection is taken from an arbitrary representative row of
	// each group (valid because SQuID only projects attributes
	// functionally determined by the group keys, e.g. GROUP BY
	// person.id ... SELECT person.name).
	GroupBy []ColRef
	// HavingCountGE keeps only groups with at least this many rows
	// (0 means no HAVING filter).
	HavingCountGE int
	// Intersect, when non-empty, intersects this query with each listed
	// query (the I in SPJAI). A branch with this query's From[0] where
	// neither aggregates and the branch has no Intersect of its own meets
	// it on From[0]'s rows: the query keeps the tuples whose From[0] row
	// the branch's joins and predicates admit. Any other branch
	// intersects the projected tuples by value.
	Intersect []*Query
}

// HasAggregation reports whether the query uses group-by aggregation.
func (q *Query) HasAggregation() bool { return len(q.GroupBy) > 0 }

// NumJoins returns the number of join predicates, counting intersected
// branches too (the J column of Figs 19/20).
func (q *Query) NumJoins() int {
	n := len(q.Joins)
	for _, sub := range q.Intersect {
		n += sub.NumJoins()
	}
	return n
}

// NumPreds returns the number of selection predicates, counting
// intersected branches (the S column of Figs 19/20).
func (q *Query) NumPreds() int {
	n := len(q.Preds)
	for _, sub := range q.Intersect {
		n += sub.NumPreds()
	}
	return n
}

// TotalPredicates counts join plus selection predicates, the metric
// reported in Figs 14/15 ("number of predicates").
func (q *Query) TotalPredicates() int { return q.NumJoins() + q.NumPreds() }

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{
		From:          append([]string(nil), q.From...),
		Joins:         append([]Join(nil), q.Joins...),
		Preds:         append([]Pred(nil), q.Preds...),
		Select:        append([]ColRef(nil), q.Select...),
		Distinct:      q.Distinct,
		GroupBy:       append([]ColRef(nil), q.GroupBy...),
		HavingCountGE: q.HavingCountGE,
	}
	for _, sub := range q.Intersect {
		c.Intersect = append(c.Intersect, sub.Clone())
	}
	return c
}
