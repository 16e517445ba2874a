// Package server implements the network serving layer: an HTTP/JSON API
// over a squid.System exposing discovery, query execution, the write
// path, and introspection, with production behaviors built in — bounded
// admission control with fast load shedding, per-request timeouts wired
// to context cancellation, warm boot and atomic snapshot re-save, and
// graceful drain.
//
// Endpoints:
//
//	POST /v1/discover        one example set → abduced query + output
//	POST /v1/discover/batch  many example sets → System.DiscoverBatch
//	POST /v1/execute         logical query plan (JSON form) → tuples
//	POST /v1/insert          one row (entity or fact, auto-dispatched)
//	POST /v1/insert/batch    many rows in one αDB critical section
//	POST /v1/snapshot        atomic on-demand snapshot save
//	GET  /v1/stats           αDB statistics (Fig 18 + cache health)
//	GET  /healthz            liveness; 503 while draining
//	GET  /metrics            Prometheus text exposition
package server

import (
	"fmt"
	"math"

	"squid"
	"squid/internal/engine"
	"squid/internal/relation"
)

// QueryJSON is the wire form of a logical engine query. Values follow
// JSON typing: strings stay strings, numbers become integers when they
// are integral and floats otherwise, null is SQL NULL.
type QueryJSON struct {
	From          []string     `json:"from"`
	Joins         []JoinJSON   `json:"joins,omitempty"`
	Preds         []PredJSON   `json:"preds,omitempty"`
	Select        []ColRefJSON `json:"select"`
	Distinct      bool         `json:"distinct,omitempty"`
	GroupBy       []ColRefJSON `json:"group_by,omitempty"`
	HavingCountGE int          `json:"having_count_ge,omitempty"`
	Intersect     []QueryJSON  `json:"intersect,omitempty"`
}

// JoinJSON is an equi-join condition on the wire.
type JoinJSON struct {
	LeftRel  string `json:"left_rel"`
	LeftCol  string `json:"left_col"`
	RightRel string `json:"right_rel"`
	RightCol string `json:"right_col"`
}

// ColRefJSON names a relation column on the wire.
type ColRefJSON struct {
	Rel string `json:"rel"`
	Col string `json:"col"`
}

// PredJSON is a selection predicate on the wire; Op is one of
// "=", ">=", "<=", ">", "<", "in".
type PredJSON struct {
	Rel    string `json:"rel"`
	Col    string `json:"col"`
	Op     string `json:"op"`
	Value  any    `json:"value,omitempty"`
	Values []any  `json:"values,omitempty"`
}

// opFromString parses the wire operator.
func opFromString(s string) (engine.Op, error) {
	switch s {
	case "=":
		return engine.OpEq, nil
	case ">=":
		return engine.OpGE, nil
	case "<=":
		return engine.OpLE, nil
	case ">":
		return engine.OpGT, nil
	case "<":
		return engine.OpLT, nil
	case "in", "IN":
		return engine.OpIn, nil
	default:
		return 0, fmt.Errorf("unknown operator %q (want =, >=, <=, >, <, or in)", s)
	}
}

func opToString(op engine.Op) string {
	if op == engine.OpIn {
		return "in"
	}
	return op.String()
}

// integralInt64 reports whether x is a whole number that int64(x)
// represents exactly. Beyond ±2^63 the conversion is undefined (it
// yields math.MinInt64 on amd64), so such values must never reach it.
func integralInt64(x float64) bool {
	return x == math.Trunc(x) && math.Abs(x) < 1<<63
}

// valueFromJSON converts a decoded JSON scalar to a relation value.
// Integral numbers become integers (JSON has no int/float distinction;
// the engine compares numerics cross-kind, so this is lossless for the
// query class); numbers too large for an int64 stay floats.
func valueFromJSON(v any) (relation.Value, error) {
	switch x := v.(type) {
	case nil:
		return relation.Null, nil
	case string:
		return relation.StringVal(x), nil
	case float64:
		if integralInt64(x) {
			return relation.IntVal(int64(x)), nil
		}
		return relation.FloatVal(x), nil
	case bool:
		return relation.Value{}, fmt.Errorf("boolean values are not part of the query class")
	default:
		return relation.Value{}, fmt.Errorf("unsupported value %v (%T)", v, v)
	}
}

// valueToJSON converts a relation value to its JSON scalar form.
func valueToJSON(v relation.Value) any {
	switch {
	case v.IsNull():
		return nil
	case v.IsInt():
		return v.Int()
	case v.IsString():
		return v.Str()
	default:
		return v.Float()
	}
}

// valueForColumn converts a JSON scalar to a value of the column's
// declared type, the strict conversion the write path needs (an Int
// column rejects 3.5 and 1e300, a Float column stores 1980 as 1980.0).
func valueForColumn(col *relation.Column, v any) (relation.Value, error) {
	if v == nil {
		return relation.Null, nil
	}
	switch col.Type {
	case relation.Int:
		x, ok := v.(float64)
		if !ok || !integralInt64(x) {
			return relation.Value{}, fmt.Errorf("column %q wants an integer, got %v", col.Name, v)
		}
		return relation.IntVal(int64(x)), nil
	case relation.Float:
		x, ok := v.(float64)
		if !ok {
			return relation.Value{}, fmt.Errorf("column %q wants a number, got %v", col.Name, v)
		}
		return relation.FloatVal(x), nil
	case relation.String:
		x, ok := v.(string)
		if !ok {
			return relation.Value{}, fmt.Errorf("column %q wants a string, got %v", col.Name, v)
		}
		return relation.StringVal(x), nil
	}
	return relation.Value{}, fmt.Errorf("column %q has unknown type", col.Name)
}

// ToEngineQuery converts the wire form to an executable logical query.
func (q *QueryJSON) ToEngineQuery() (*engine.Query, error) {
	out := &engine.Query{
		From:          append([]string(nil), q.From...),
		Distinct:      q.Distinct,
		HavingCountGE: q.HavingCountGE,
	}
	for _, j := range q.Joins {
		out.Joins = append(out.Joins, engine.Join{
			LeftRel: j.LeftRel, LeftCol: j.LeftCol,
			RightRel: j.RightRel, RightCol: j.RightCol,
		})
	}
	for i, p := range q.Preds {
		op, err := opFromString(p.Op)
		if err != nil {
			return nil, fmt.Errorf("pred %d: %w", i, err)
		}
		pred := engine.Pred{Rel: p.Rel, Col: p.Col, Op: op}
		if op == engine.OpIn {
			for _, raw := range p.Values {
				v, err := valueFromJSON(raw)
				if err != nil {
					return nil, fmt.Errorf("pred %d: %w", i, err)
				}
				pred.Vals = append(pred.Vals, v)
			}
		} else {
			v, err := valueFromJSON(p.Value)
			if err != nil {
				return nil, fmt.Errorf("pred %d: %w", i, err)
			}
			pred.Val = v
		}
		out.Preds = append(out.Preds, pred)
	}
	for _, s := range q.Select {
		out.Select = append(out.Select, engine.ColRef{Rel: s.Rel, Col: s.Col})
	}
	for _, g := range q.GroupBy {
		out.GroupBy = append(out.GroupBy, engine.ColRef{Rel: g.Rel, Col: g.Col})
	}
	for i := range q.Intersect {
		sub, err := q.Intersect[i].ToEngineQuery()
		if err != nil {
			return nil, fmt.Errorf("intersect %d: %w", i, err)
		}
		out.Intersect = append(out.Intersect, sub)
	}
	return out, nil
}

// FromEngineQuery converts a logical query to its wire form; clients
// (the load generator, tooling) use it to execute a plan returned by
// discovery over the network.
//
//lint:ignore unusedexport public wire-codec API, the documented inverse of ToEngineQuery (README serving section)
func FromEngineQuery(q *squid.Query) QueryJSON {
	out := QueryJSON{
		From:          append([]string(nil), q.From...),
		Distinct:      q.Distinct,
		HavingCountGE: q.HavingCountGE,
	}
	for _, j := range q.Joins {
		out.Joins = append(out.Joins, JoinJSON{
			LeftRel: j.LeftRel, LeftCol: j.LeftCol,
			RightRel: j.RightRel, RightCol: j.RightCol,
		})
	}
	for _, p := range q.Preds {
		pj := PredJSON{Rel: p.Rel, Col: p.Col, Op: opToString(p.Op)}
		if p.Op == engine.OpIn {
			for _, v := range p.Vals {
				pj.Values = append(pj.Values, valueToJSON(v))
			}
		} else {
			pj.Value = valueToJSON(p.Val)
		}
		out.Preds = append(out.Preds, pj)
	}
	for _, s := range q.Select {
		out.Select = append(out.Select, ColRefJSON{Rel: s.Rel, Col: s.Col})
	}
	for _, g := range q.GroupBy {
		out.GroupBy = append(out.GroupBy, ColRefJSON{Rel: g.Rel, Col: g.Col})
	}
	for _, sub := range q.Intersect {
		out.Intersect = append(out.Intersect, FromEngineQuery(sub))
	}
	return out
}
