package relation

import "fmt"

// Column is a typed column of a relation, stored densely with a NULL
// bitmap. Integer and float columns store raw 64-bit values; TEXT columns
// are dictionary-encoded: cells hold int32 codes into a per-column Dict,
// so the dense storage is four bytes per row regardless of string length
// and scans compare codes instead of strings.
//
// Cell storage is flat and, across copy-on-write epochs, shared: a
// clone copies the header.
type Column struct {
	Name string
	Type ColType

	ints  []int64
	flts  []float64
	codes []int32
	dict  *Dict
	nulls []bool // nil when the column has no NULLs so far
}

// NewColumn creates an empty column.
func NewColumn(name string, t ColType) *Column {
	c := &Column{Name: name, Type: t}
	if t == String {
		c.dict = newDict()
	}
	return c
}

// Len returns the number of stored cells.
func (c *Column) Len() int {
	switch c.Type {
	case Int:
		return len(c.ints)
	case Float:
		return len(c.flts)
	default:
		return len(c.codes)
	}
}

// Append adds a value to the end of the column. A NULL value is stored as
// the zero of the column type (the NoCode sentinel for TEXT) with the
// null bitmap set.
func (c *Column) Append(v Value) error {
	if v.IsNull() {
		c.ensureNulls()
		c.nulls = append(c.nulls, true)
		switch c.Type {
		case Int:
			c.ints = append(c.ints, 0)
		case Float:
			c.flts = append(c.flts, 0)
		default:
			c.codes = append(c.codes, NoCode)
		}
		return nil
	}
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
	switch c.Type {
	case Int:
		if err := c.checkStorable(v); err != nil {
			return err
		}
		c.ints = append(c.ints, v.i)
	case Float:
		switch v.kind {
		case kindFloat:
			c.flts = append(c.flts, v.f)
		case kindInt:
			c.flts = append(c.flts, float64(v.i))
		default:
			return fmt.Errorf("relation: column %q is DOUBLE, got %s", c.Name, v.kindName())
		}
	case String:
		if v.kind != kindString {
			return fmt.Errorf("relation: column %q is TEXT, got %s", c.Name, v.kindName())
		}
		c.codes = append(c.codes, c.dict.Intern(v.s))
	}
	return nil
}

// checkStorable reports whether v could be stored in this column,
// using exactly Append's type rules and error messages; it mutates
// nothing, so whole-row validation can run before any cell is written.
func (c *Column) checkStorable(v Value) error {
	if v.IsNull() {
		return nil
	}
	switch c.Type {
	case Int:
		if v.kind != kindInt {
			return fmt.Errorf("relation: column %q is INTEGER, got %s", c.Name, v.kindName())
		}
	case Float:
		if v.kind != kindFloat && v.kind != kindInt {
			return fmt.Errorf("relation: column %q is DOUBLE, got %s", c.Name, v.kindName())
		}
	case String:
		if v.kind != kindString {
			return fmt.Errorf("relation: column %q is TEXT, got %s", c.Name, v.kindName())
		}
	}
	return nil
}

// ensureNulls materializes the null bitmap lazily, backfilling false.
func (c *Column) ensureNulls() {
	if c.nulls == nil {
		c.nulls = make([]bool, c.Len())
	}
}

// IsNull reports whether cell row is NULL.
func (c *Column) IsNull(row int) bool {
	return c.nulls != nil && c.nulls[row]
}

// Get returns the cell at row as a Value.
func (c *Column) Get(row int) Value {
	if c.IsNull(row) {
		return Null
	}
	switch c.Type {
	case Int:
		return IntVal(c.Int64(row))
	case Float:
		return FloatVal(c.flts[row])
	default:
		return StringVal(c.dict.Value(c.codes[row]))
	}
}

// Int64 returns the raw integer at row without Value boxing. The caller
// must know the column type and that the cell is non-NULL.
func (c *Column) Int64(row int) int64 { return c.ints[row] }

// Float64 returns the raw float at row.
func (c *Column) Float64(row int) float64 {
	if c.Type == Int {
		return float64(c.Int64(row))
	}
	return c.flts[row]
}

// Str returns the raw string at row. The caller must know the column is
// TEXT and the cell is non-NULL.
func (c *Column) Str(row int) string { return c.dict.Value(c.codes[row]) }

// Code returns the dictionary code at row (NoCode for NULL cells); the
// fast path for scans that compare codes instead of strings.
func (c *Column) Code(row int) int32 { return c.codes[row] }

// Dict returns the column's dictionary (nil for non-TEXT columns).
func (c *Column) Dict() *Dict { return c.dict }

// DistinctCount returns the number of distinct non-NULL values ever
// stored in the column — exact for append-only columns (the dictionary
// grows monotonically), an upper bound if cells were overwritten.
func (c *Column) DistinctCount() int {
	if c.Type == String {
		return c.dict.Len()
	}
	seen := make(map[Value]struct{})
	for i := 0; i < c.Len(); i++ {
		if !c.IsNull(i) {
			seen[c.Get(i)] = struct{}{}
		}
	}
	return len(seen)
}

// Set overwrites the cell at row.
func (c *Column) Set(row int, v Value) error {
	if v.IsNull() {
		c.ensureNulls()
		c.nulls[row] = true
		if c.Type == String {
			c.codes[row] = NoCode
		}
		return nil
	}
	if c.nulls != nil {
		c.nulls[row] = false
	}
	switch c.Type {
	case Int:
		if err := c.checkStorable(v); err != nil {
			return err
		}
		c.ints[row] = v.i
	case Float:
		c.flts[row] = v.Float()
	case String:
		if v.kind != kindString {
			return fmt.Errorf("relation: column %q is TEXT, got %s", c.Name, v.kindName())
		}
		c.codes[row] = c.dict.Intern(v.s)
	}
	return nil
}

// ByteSize returns the in-memory footprint of the column in bytes, its
// dictionary included; used for the Fig 18 dataset-statistics table.
func (c *Column) ByteSize() int64 {
	n := c.CellBytes()
	if c.dict != nil {
		n += c.dict.ByteSize()
	}
	return n
}

// CellBytes returns the bytes of the column's cells and NULL bitmap,
// without the dictionary of a TEXT column.
func (c *Column) CellBytes() int64 {
	n := int64(len(c.ints))*8 + int64(len(c.flts))*8 + int64(len(c.codes))*4
	if c.nulls != nil {
		n += int64(len(c.nulls))
	}
	return n
}

// MapBytes estimates the heap bytes of a Go map holding n entries of
// slotBytes (key plus value) each: the runtime keeps a power-of-two
// number of slots filled to at most 7/8, each with one control byte —
// exact for a map presized to n, within a doubling for one grown by
// inserts.
func MapBytes(n, slotBytes int) int64 {
	if n == 0 {
		return 0
	}
	slots := 8
	for slots*7 < n*8 {
		slots *= 2
	}
	return int64(slots) * int64(slotBytes+1)
}

// Raw accessors for snapshot serialization and in-place scans. The
// returned slices alias column storage: do not mutate.

// RawInts returns the dense integer cells (Int columns).
func (c *Column) RawInts() []int64 { return c.ints }

// RawFloats returns the dense float cells (Float columns).
func (c *Column) RawFloats() []float64 { return c.flts }

// RawCodes returns the dense dictionary codes (String columns).
func (c *Column) RawCodes() []int32 { return c.codes }

// RawNulls returns the null bitmap (nil when the column has no NULLs).
func (c *Column) RawNulls() []bool { return c.nulls }

// RestoreIntColumn rebuilds an Int column from raw storage (snapshot
// load). The slices are adopted, not copied.
func RestoreIntColumn(name string, ints []int64, nulls []bool) *Column {
	return &Column{Name: name, Type: Int, ints: ints, nulls: nulls}
}

// RestoreFloatColumn rebuilds a Float column from raw storage.
func RestoreFloatColumn(name string, flts []float64, nulls []bool) *Column {
	return &Column{Name: name, Type: Float, flts: flts, nulls: nulls}
}

// RestoreStringColumn rebuilds a dictionary-encoded String column from
// raw storage.
func RestoreStringColumn(name string, codes []int32, dict *Dict, nulls []bool) *Column {
	return &Column{Name: name, Type: String, codes: codes, dict: dict, nulls: nulls}
}
