package index

import (
	"slices"
	"strings"

	"squid/internal/relation"
)

// CommonColumns returns the (relation, column) pairs of db whose TEXT
// column holds every one of values, compared in normal form — the
// candidate projection attributes of a set of example tuples (entity
// lookup, §5 of the paper) — sorted by relation, then column. For each
// it reports the rows that hold each value, ascending, for
// disambiguation. s must hold a code index (BuildIntHash) of every TEXT
// column of db, as an epoch's resident set does.
//
// Each value is normalized once (relation.AppendNormal), its codes in
// a column are a probe of the column's dictionary
// (relation.Dict.AppendNormalCodes), and their rows the code index's
// lists. The first value is probed in every TEXT column, each later
// one only in the columns that hold all before it.
func (s *IndexSet) CommonColumns(db *relation.Database, values []string) []ColumnMatch {
	n := len(values)
	if n == 0 {
		return nil
	}
	type column struct {
		key  ColumnKey
		dict *relation.Dict
		h    *IntHash
		dead bool // a value missed it
	}
	var (
		cols []column // the columns that hold values[0]
		// The rows of value i in cols[k] end at ends[i·len(cols)+k] in
		// flat, where the entry before it starts them.
		flat = make([]int, 0, n)
		ebuf [64]int
		ends = ebuf[:0]
		kbuf [64]byte
		cbuf [8]int32
	)
	// search appends the rows of key in c to flat, ascending — several
	// codes of one normal form hold disjoint rows — and reports whether
	// there were any.
	search := func(c *column, key []byte) bool {
		codes, start := c.dict.AppendNormalCodes(cbuf[:0], key), len(flat)
		if len(codes) > 0 && c.h == nil {
			c.h = s.ints[c.key]
		}
		for _, code := range codes {
			for r := range c.h.Rows(int64(code)).All() {
				flat = append(flat, int(r))
			}
		}
		if len(codes) > 1 {
			slices.Sort(flat[start:])
		}
		return len(flat) > start
	}
	key := relation.AppendNormal(kbuf[:0], values[0])
	for _, name := range db.RelationNames() {
		for _, col := range db.Relation(name).Columns() {
			c := column{key: ColumnKey{name, col.Name}, dict: col.Dict()}
			if col.Type == relation.String && search(&c, key) {
				cols, ends = append(cols, c), append(ends, len(flat))
			}
		}
	}
	for i := 1; i < n; i++ {
		key = relation.AppendNormal(kbuf[:0], values[i])
		for k := range cols {
			cols[k].dead = cols[k].dead || !search(&cols[k], key)
			ends = append(ends, len(flat))
		}
	}
	var out []ColumnMatch
	for k, c := range cols {
		if c.dead {
			continue
		}
		m := ColumnMatch{Key: c.key, Rows: make([][]int, n)}
		for i := range m.Rows {
			j := i*len(cols) + k
			start := 0
			if j > 0 {
				start = ends[j-1]
			}
			m.Rows[i] = flat[start:ends[j]:ends[j]]
		}
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b ColumnMatch) int {
		if c := strings.Compare(a.Key.Relation, b.Key.Relation); c != 0 {
			return c
		}
		return strings.Compare(a.Key.Column, b.Key.Column)
	})
	return out
}

// ColumnMatch reports that all example values occur in Key; Rows[i] lists
// the candidate rows for example value i (|Rows[i]| > 1 means the value is
// ambiguous and needs disambiguation).
type ColumnMatch struct {
	Key  ColumnKey
	Rows [][]int
}

// Ambiguous reports whether any example value maps to more than one row.
func (m ColumnMatch) Ambiguous() bool {
	for _, r := range m.Rows {
		if len(r) > 1 {
			return true
		}
	}
	return false
}
