package relation

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Column is a typed column of a relation, stored densely, with a NULL
// flag a row — a []bool, one byte a row, made only once a NULL arrives.
// No column of the benchmark's database holds a NULL, so a bitmap would
// not move its memory. Float columns store raw 64-bit values; TEXT
// columns are dictionary-encoded: cells hold int32 codes into a
// per-column Dict, so the dense storage is four bytes per row regardless
// of string length and scans compare codes instead of strings.
//
// An INTEGER column stores cell i as base plus the i-th unsigned
// little-endian offset of one flat array, every offset 1, 2, 4 or 8
// bytes wide: the narrowest width that holds the column's range (ids
// below 256 take a byte a cell, below 65,536 two). A value outside the
// range relays the column once at a wider width (relay), so a column is
// relaid at most three times in its life. A NULL cell's offset is 0.
//
// Cell storage is flat and, across copy-on-write epochs, shared: a
// clone copies the header.
type Column struct {
	Name string
	Type ColType

	// base, shift and offs hold an INTEGER column: cell i is base plus
	// the offset at offs[i<<shift:], 1<<shift bytes wide.
	base  int64
	shift uint8
	offs  []byte

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

// MakeIntColumn creates an INTEGER column of n cells laid out to hold
// every value in [lo, hi], each reading as the layout's base until
// PutInt64 writes it.
func MakeIntColumn(name string, lo, hi int64, n int) *Column {
	c := &Column{Name: name, Type: Int}
	c.base, c.shift = intLayout(lo, hi, 0)
	c.offs = make([]byte, n<<c.shift)
	return c
}

// GatherIntColumn creates an INTEGER column holding the cells of src at
// rows, none of them NULL, in src's layout: each cell's offset is
// copied, not decoded.
func GatherIntColumn(name string, src *Column, rows []uint32) *Column {
	c := &Column{Name: name, Type: Int, base: src.base, shift: src.shift, offs: make([]byte, len(rows)<<src.shift)}
	from, to := src.offs, c.offs
	switch c.shift {
	case 0:
		for i, r := range rows {
			to[i] = from[r]
		}
	case 1:
		for i, r := range rows {
			j := 2 * int(r)
			binary.LittleEndian.PutUint16(to[2*i:2*i+2], binary.LittleEndian.Uint16(from[j:j+2]))
		}
	case 2:
		for i, r := range rows {
			j := 4 * int(r)
			binary.LittleEndian.PutUint32(to[4*i:4*i+4], binary.LittleEndian.Uint32(from[j:j+4]))
		}
	default:
		for i, r := range rows {
			j := 8 * int(r)
			binary.LittleEndian.PutUint64(to[8*i:8*i+8], binary.LittleEndian.Uint64(from[j:j+8]))
		}
	}
	return c
}

// Len returns the number of stored cells.
func (c *Column) Len() int {
	switch c.Type {
	case Int:
		return len(c.offs) >> c.shift
	case Float:
		return len(c.flts)
	default:
		return len(c.codes)
	}
}

// Append adds a value to the end of the column. A NULL value is stored as
// the zero of the column type (offset 0 for INTEGER, the NoCode sentinel
// for TEXT) with its NULL flag set.
func (c *Column) Append(v Value) error { return c.append(nil, v) }

// append is Append by the writer generation g, which a relay charges.
func (c *Column) append(g *Gen, v Value) error {
	if v.IsNull() {
		c.ensureNulls()
		c.nulls = append(c.nulls, true)
		switch c.Type {
		case Int:
			c.offs = append(c.offs, make([]byte, 1<<c.shift)...)
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
		if !c.holds(v.i) {
			c.relay(g, v.i)
		}
		n := c.Len()
		c.offs = append(c.offs, make([]byte, 1<<c.shift)...)
		c.PutInt64(n, v.i)
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

// ensureNulls materializes the NULL flags lazily, backfilling false.
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

// Int64 returns the raw integer at row without Value boxing: base plus
// its offset. The caller must know the column type and that the cell is
// non-NULL.
func (c *Column) Int64(row int) int64 {
	switch c.shift {
	case 0:
		return c.base + int64(c.offs[row])
	case 1:
		return c.base + int64(binary.LittleEndian.Uint16(c.offs[row<<1:]))
	case 2:
		return c.base + int64(binary.LittleEndian.Uint32(c.offs[row<<2:]))
	}
	return c.base + int64(binary.LittleEndian.Uint64(c.offs[row<<3:]))
}

// ReadInt64s decodes the INTEGER cells lo, lo+1, ... into dst, one a
// slot, as Int64 would read them (a NULL cell reads as the base): a
// block at a time, one loop per width.
func (c *Column) ReadInt64s(dst []int64, lo int) {
	base, n := c.base, len(dst)
	src := c.offs[lo<<c.shift : (lo+n)<<c.shift]
	// Each offset is sliced at its exact width, so one bounds check
	// covers a cell.
	switch c.shift {
	case 0:
		for i, o := range src[:n] {
			dst[i] = base + int64(o)
		}
	case 1:
		for i := range dst {
			dst[i] = base + int64(binary.LittleEndian.Uint16(src[2*i:2*i+2]))
		}
	case 2:
		for i := range dst {
			dst[i] = base + int64(binary.LittleEndian.Uint32(src[4*i:4*i+4]))
		}
	default:
		for i := range dst {
			dst[i] = base + int64(binary.LittleEndian.Uint64(src[8*i:8*i+8]))
		}
	}
}

// Width returns the bytes of an INTEGER cell's offset: 1, 2, 4 or 8.
func (c *Column) Width() int { return 1 << c.shift }

// holds reports whether v is base plus an offset of the column's width.
// The difference is taken unsigned, so it cannot overflow, and at eight
// bytes every value is held (a shift by 64 is 0).
func (c *Column) holds(v int64) bool {
	return (uint64(v)-uint64(c.base))>>(8<<c.shift) == 0
}

// PutInt64 writes v's offset into cell row in place, which the
// column's layout must hold (a MakeIntColumn column's range): no relay,
// no NULL flag.
func (c *Column) PutInt64(row int, v int64) {
	off := uint64(v) - uint64(c.base)
	switch c.shift {
	case 0:
		c.offs[row] = byte(off)
	case 1:
		binary.LittleEndian.PutUint16(c.offs[2*row:2*row+2], uint16(off))
	case 2:
		binary.LittleEndian.PutUint32(c.offs[4*row:4*row+4], uint32(off))
	default:
		binary.LittleEndian.PutUint64(c.offs[8*row:8*row+8], off)
	}
}

// intRange returns the least and greatest non-NULL cell of an INTEGER
// column; ok is false when it has none.
func (c *Column) intRange() (lo, hi int64, ok bool) {
	for i := range c.Len() {
		if c.IsNull(i) {
			continue
		}
		v := c.Int64(i)
		if !ok {
			lo, hi, ok = v, v, true
		}
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, ok
}

// relay lays the column out again so that it holds v beside every cell
// it holds: at the next width, or wider, that takes the whole range,
// with the base intLayout picks. The copy is a new array — clones keep
// the old one — charged to g. A column that holds no value yet has
// only offsets of 0, which any base keeps as NULLs: it rebases without
// a copy and keeps its width.
func (c *Column) relay(g *Gen, v int64) {
	lo, hi, ok := c.intRange()
	if !ok {
		c.base, _ = intLayout(v, v, c.shift)
		return
	}
	old := *c
	c.base, c.shift = intLayout(min(lo, v), max(hi, v), c.shift+1)
	n := old.Len()
	// Room for the cell that asked, so the append after a relay does
	// not copy the array a second time.
	c.offs = make([]byte, n<<c.shift, (n+1)<<c.shift)
	g.Charge(len(c.offs))
	for i := range n {
		if !c.IsNull(i) {
			c.PutInt64(i, old.Int64(i))
		}
	}
}

// intLayout returns the base and shift of cells spanning [lo, hi], at
// least minShift: the narrowest width that holds hi - lo, and a base of
// 0 when that width holds lo and hi as they are — ids counted from 0
// are their own offsets — else one that centers [lo, hi] in the
// width's window, leaving room for values on both sides of it. At eight
// bytes every base holds every value, and the base is 0.
func intLayout(lo, hi int64, minShift uint8) (base int64, shift uint8) {
	span := uint64(hi) - uint64(lo)
	for shift = minShift; shift < 3 && span>>(8<<shift) != 0; shift++ {
	}
	if shift == 3 {
		return 0, 3
	}
	last := uint64(1)<<(8<<shift) - 1 // the widest offset
	if lo >= 0 && uint64(hi) <= last {
		return 0, shift
	}
	return int64(uint64(lo) - (last-span)/2), shift
}

// IntLayout returns the INTEGER column in the layout its cells alone
// pick — intLayout of their range, offset 0 for a NULL — so two columns
// of equal cells return equal bytes whatever order their values arrived
// in: the column's own offsets (do not mutate) when it is laid out so,
// else a copy laid out so. This is the snapshot's form of the column.
func (c *Column) IntLayout() (base int64, width int, offs []byte) {
	lo, hi, _ := c.intRange()
	b, shift := intLayout(lo, hi, 0)
	if b == c.base && shift == c.shift {
		return c.base, c.Width(), c.offs
	}
	canon := &Column{Type: Int, base: b, shift: shift, offs: make([]byte, c.Len()<<shift), nulls: c.nulls}
	for i := range c.Len() {
		if !c.IsNull(i) {
			canon.PutInt64(i, c.Int64(i))
		}
	}
	return b, canon.Width(), canon.offs
}

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

// Set overwrites the cell at row.
func (c *Column) Set(row int, v Value) error {
	if v.IsNull() {
		c.ensureNulls()
		c.nulls[row] = true
		switch c.Type {
		case Int:
			c.PutInt64(row, c.base)
		case String:
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
		if !c.holds(v.i) {
			c.relay(nil, v.i)
		}
		c.PutInt64(row, v.i)
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

// CellBytes returns the bytes of the column's cells and NULL flags,
// without the dictionary of a TEXT column.
func (c *Column) CellBytes() int64 {
	n := int64(len(c.offs)) + int64(len(c.flts))*8 + int64(len(c.codes))*4
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

// RawFloats returns the dense float cells (Float columns).
func (c *Column) RawFloats() []float64 { return c.flts }

// RawCodes returns the dense dictionary codes (String columns).
func (c *Column) RawCodes() []int32 { return c.codes }

// RawNulls returns the NULL flags (nil when the column has no NULLs).
func (c *Column) RawNulls() []bool { return c.nulls }

// RestoreIntColumn rebuilds an Int column from the layout IntLayout
// returned (snapshot load): width is 1, 2, 4 or 8, and offs holds a
// width-byte offset a row. The slices are adopted, not copied.
func RestoreIntColumn(name string, base int64, width int, offs []byte, nulls []bool) *Column {
	return &Column{Name: name, Type: Int, base: base, shift: uint8(bits.TrailingZeros(uint(width))), offs: offs, nulls: nulls}
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
