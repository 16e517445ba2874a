// Package relation provides the typed in-memory relational storage layer:
// column types, relations (tables) with typed columns and NULL tracking,
// schemas, and primary/foreign-key metadata. It is the substrate on which
// the execution engine (internal/engine) and the abduction-ready database
// (internal/adb) are built; the paper's implementation uses PostgreSQL for
// this role.
package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// ColType identifies the storage type of a column.
type ColType int

const (
	// Int is a 64-bit signed integer column (ids, years, counts).
	Int ColType = iota
	// Float is a 64-bit floating-point column.
	Float
	// String is a text column (names, titles, categorical values).
	String
)

// String returns the SQL-ish name of the type.
func (t ColType) String() string {
	switch t {
	case Int:
		return "INTEGER"
	case Float:
		return "DOUBLE"
	case String:
		return "TEXT"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Value is a dynamically typed cell value. The zero Value is NULL.
// Values are small (24 bytes) and passed by value.
type Value struct {
	kind valueKind
	i    int64
	f    float64
	s    string
}

type valueKind uint8

const (
	kindNull valueKind = iota
	kindInt
	kindFloat
	kindString
)

// Null is the NULL value.
var Null = Value{}

// IntVal wraps an int64 as a Value.
func IntVal(v int64) Value { return Value{kind: kindInt, i: v} }

// FloatVal wraps a float64 as a Value.
func FloatVal(v float64) Value { return Value{kind: kindFloat, f: v} }

// StringVal wraps a string as a Value.
func StringVal(v string) Value { return Value{kind: kindString, s: v} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == kindNull }

// IsInt reports whether the value holds an integer payload.
func (v Value) IsInt() bool { return v.kind == kindInt }

// IsString reports whether the value holds a string payload.
func (v Value) IsString() bool { return v.kind == kindString }

// Int returns the integer payload; it panics if the value is not an Int.
func (v Value) Int() int64 {
	if v.kind != kindInt {
		panic(fmt.Sprintf("relation: Int() on %s value", v.kindName()))
	}
	return v.i
}

// Float returns the float payload, converting from Int if needed.
func (v Value) Float() float64 {
	switch v.kind {
	case kindFloat:
		return v.f
	case kindInt:
		return float64(v.i)
	}
	panic(fmt.Sprintf("relation: Float() on %s value", v.kindName()))
}

// Str returns the string payload; it panics if the value is not a String.
func (v Value) Str() string {
	if v.kind != kindString {
		panic(fmt.Sprintf("relation: Str() on %s value", v.kindName()))
	}
	return v.s
}

func (v Value) kindName() string {
	switch v.kind {
	case kindNull:
		return "NULL"
	case kindInt:
		return "INTEGER"
	case kindFloat:
		return "DOUBLE"
	case kindString:
		return "TEXT"
	}
	return "?"
}

// Equal reports deep equality of two values. NULL equals only NULL
// (three-valued logic is not needed by the engine: predicates on NULL
// evaluate to false before Equal is consulted).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// Allow numeric cross-kind equality (Int 3 == Float 3.0).
		if (v.kind == kindInt || v.kind == kindFloat) && (o.kind == kindInt || o.kind == kindFloat) {
			return v.Float() == o.Float()
		}
		return false
	}
	switch v.kind {
	case kindNull:
		return true
	case kindInt:
		return v.i == o.i
	case kindFloat:
		return v.f == o.f
	case kindString:
		return v.s == o.s
	}
	return false
}

// Less orders values of comparable kinds; NULL sorts before everything.
func (v Value) Less(o Value) bool {
	if v.kind == kindNull {
		return o.kind != kindNull
	}
	if o.kind == kindNull {
		return false
	}
	if v.kind == kindString && o.kind == kindString {
		return v.s < o.s
	}
	return v.Float() < o.Float()
}

// String renders the value for display and SQL generation.
func (v Value) String() string {
	switch v.kind {
	case kindNull:
		return "NULL"
	case kindInt:
		return strconv.FormatInt(v.i, 10)
	case kindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case kindString:
		return v.s
	}
	return "?"
}

// SQLLiteral renders the value as a SQL literal: strings quoted, a quote
// inside one doubled.
func (v Value) SQLLiteral() string {
	if v.kind == kindString {
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
	return v.String()
}
