package engine

import (
	"encoding/binary"
	"math"
	"sort"

	"squid/internal/relation"
)

// Result holds the projected tuples of an executed query. Rows come in
// the executor's canonical order (see Executor), so two executions of
// one query over one database state return identical Rows.
type Result struct {
	Cols []string
	Rows [][]relation.Value
}

// NumRows returns the result cardinality.
func (r *Result) NumRows() int { return len(r.Rows) }

// appendKey appends a collision-free encoding of v to b: a kind tag,
// then a fixed-width payload for a number or a length-prefixed one for
// text, so no value can run into its neighbour and no string can spell
// NULL. Two values get one key exactly when Value.Equal holds: an
// integral DOUBLE encodes as the INTEGER it equals.
func appendKey(b []byte, v relation.Value) []byte {
	switch {
	case v.IsNull():
		return append(b, 'n')
	case v.IsString():
		s := v.Str()
		return append(binary.AppendUvarint(append(b, 's'), uint64(len(s))), s...)
	case v.IsInt():
		return binary.BigEndian.AppendUint64(append(b, 'i'), uint64(v.Int()))
	}
	f := v.Float()
	if f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
		return binary.BigEndian.AppendUint64(append(b, 'i'), uint64(int64(f)))
	}
	return binary.BigEndian.AppendUint64(append(b, 'f'), math.Float64bits(f))
}

// appendTupleKey appends the key of a projected tuple: the keys of its
// values back to back (each is self-delimiting).
func appendTupleKey(b []byte, row []relation.Value) []byte {
	for _, v := range row {
		b = appendKey(b, v)
	}
	return b
}

// TupleSet returns the set of tuple keys, for comparing results as sets.
func (r *Result) TupleSet() map[string]struct{} {
	s := make(map[string]struct{}, len(r.Rows))
	var buf []byte
	for _, row := range r.Rows {
		buf = appendTupleKey(buf[:0], row)
		s[string(buf)] = struct{}{}
	}
	return s
}

// Strings returns single-column results as a sorted string slice;
// it panics when the result has more than one column.
func (r *Result) Strings() []string {
	if len(r.Cols) != 1 {
		panic("engine: Strings() on multi-column result")
	}
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		out = append(out, row[0].String())
	}
	sort.Strings(out)
	return out
}

// intersect keeps only tuples also present in other.
func (r *Result) intersect(other *Result) {
	keep := other.TupleSet()
	var buf []byte
	out := r.Rows[:0]
	for _, row := range r.Rows {
		buf = appendTupleKey(buf[:0], row)
		if _, ok := keep[string(buf)]; ok {
			out = append(out, row)
		}
	}
	r.Rows = out
}
