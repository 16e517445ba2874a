package relation

import (
	"fmt"
	"sort"
)

// ForeignKey declares that Column of the owning relation references
// RefColumn of RefRelation (always a key-foreign-key edge in SQuID's
// schema graph).
type ForeignKey struct {
	Column      string
	RefRelation string
	RefColumn   string
}

// Relation is an in-memory table: named, typed columns of equal length,
// with optional primary-key and foreign-key metadata.
type Relation struct {
	Name       string
	PrimaryKey string // name of the PK column ("" if none)
	Foreign    []ForeignKey

	cols    []*Column
	colIdx  map[string]int
	numRows int
	// gen is the writer generation of a CloneForWrite clone: an append
	// that relays a column charges the copy to it.
	gen *Gen
}

// New creates an empty relation with the given columns.
// Column specs are (name, type) pairs supplied via Col.
func New(name string, cols ...*Column) *Relation {
	r := &Relation{Name: name, colIdx: make(map[string]int, len(cols))}
	for _, c := range cols {
		r.addColumn(c)
	}
	return r
}

// Col is a convenience constructor for column specs used with New.
func Col(name string, t ColType) *Column { return NewColumn(name, t) }

func (r *Relation) addColumn(c *Column) {
	if _, dup := r.colIdx[c.Name]; dup {
		panic(fmt.Sprintf("relation %q: duplicate column %q", r.Name, c.Name))
	}
	r.colIdx[c.Name] = len(r.cols)
	r.cols = append(r.cols, c)
}

// SetPrimaryKey declares column name as the primary key.
func (r *Relation) SetPrimaryKey(name string) *Relation {
	if _, ok := r.colIdx[name]; !ok {
		panic(fmt.Sprintf("relation %q: no column %q for primary key", r.Name, name))
	}
	r.PrimaryKey = name
	return r
}

// AddForeignKey declares column col as referencing refRel.refCol.
func (r *Relation) AddForeignKey(col, refRel, refCol string) *Relation {
	if _, ok := r.colIdx[col]; !ok {
		panic(fmt.Sprintf("relation %q: no column %q for foreign key", r.Name, col))
	}
	r.Foreign = append(r.Foreign, ForeignKey{Column: col, RefRelation: refRel, RefColumn: refCol})
	return r
}

// Restore rebuilds a relation from restored columns (snapshot load);
// every column must already hold numRows cells.
func Restore(name, primaryKey string, fks []ForeignKey, cols []*Column, numRows int) *Relation {
	r := New(name, cols...)
	r.PrimaryKey = primaryKey
	r.Foreign = fks
	r.numRows = numRows
	return r
}

// CloneForWrite returns a copy-on-write clone of the relation for the
// writer generation g, in O(columns): the column headers are copied, and
// the cell storage, the dictionaries, the column-name index and the key
// metadata are shared. Appends on the clone write only past the
// original's length (into shared spare capacity or a reallocated
// array), which no reader of the original indexes; one writer at a time
// appends, and epochs form a linear chain, so each storage index is
// written at most once. An append that relays an INTEGER column writes
// a new array, charged to g.
func (r *Relation) CloneForWrite(g *Gen) *Relation {
	q := *r
	q.gen = g
	q.cols = make([]*Column, len(r.cols))
	for i, c := range r.cols {
		col := *c
		q.cols[i] = &col
	}
	return &q
}

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return r.numRows }

// NumCols returns the number of columns.
func (r *Relation) NumCols() int { return len(r.cols) }

// Columns returns the column list in declaration order.
func (r *Relation) Columns() []*Column { return r.cols }

// ColumnNames returns the column names in declaration order.
func (r *Relation) ColumnNames() []string {
	names := make([]string, len(r.cols))
	for i, c := range r.cols {
		names[i] = c.Name
	}
	return names
}

// Column returns the column with the given name, or nil.
func (r *Relation) Column(name string) *Column {
	if i, ok := r.colIdx[name]; ok {
		return r.cols[i]
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (r *Relation) ColumnIndex(name string) int {
	if i, ok := r.colIdx[name]; ok {
		return i
	}
	return -1
}

// HasColumn reports whether the relation has a column with the given name.
func (r *Relation) HasColumn(name string) bool {
	_, ok := r.colIdx[name]
	return ok
}

// ValidateRow checks that vals could be appended as one row: the arity
// matches and every value is storable in its column. Writers that must
// not mutate on failure (the αDB's copy-on-write insert paths) call it
// before touching any state.
func (r *Relation) ValidateRow(vals []Value) error {
	if len(vals) != len(r.cols) {
		return fmt.Errorf("relation %q: Append got %d values, want %d", r.Name, len(vals), len(r.cols))
	}
	for i, v := range vals {
		if err := r.cols[i].checkStorable(v); err != nil {
			return err
		}
	}
	return nil
}

// Append adds a row. The row is validated up front (ValidateRow), so a
// rejected row never leaves ragged columns behind: either every column
// gains a cell or none does.
func (r *Relation) Append(vals ...Value) error {
	if err := r.ValidateRow(vals); err != nil {
		return err
	}
	for i, v := range vals {
		if err := r.cols[i].append(r.gen, v); err != nil {
			return err
		}
	}
	r.numRows++
	return nil
}

// MustAppend is Append that panics on error; used by generators and tests
// where the schema is statically known.
func (r *Relation) MustAppend(vals ...Value) {
	if err := r.Append(vals...); err != nil {
		panic(err)
	}
}

// Get returns cell (row, col name) as a Value.
func (r *Relation) Get(row int, col string) Value {
	c := r.Column(col)
	if c == nil {
		panic(fmt.Sprintf("relation %q: no column %q", r.Name, col))
	}
	return c.Get(row)
}

// Row materializes row i as a Value slice in column order.
func (r *Relation) Row(i int) []Value {
	out := make([]Value, len(r.cols))
	for j, c := range r.cols {
		out[j] = c.Get(i)
	}
	return out
}

// ByteSize estimates the in-memory footprint in bytes (Fig 18 statistics).
func (r *Relation) ByteSize() int64 {
	var n int64
	for _, c := range r.cols {
		n += c.ByteSize()
	}
	return n
}

// DistinctValues returns the sorted distinct non-NULL values of a column.
func (r *Relation) DistinctValues(col string) []Value {
	c := r.Column(col)
	if c == nil {
		return nil
	}
	seen := make(map[Value]struct{})
	for i := 0; i < c.Len(); i++ {
		if c.IsNull(i) {
			continue
		}
		seen[c.Get(i)] = struct{}{}
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
