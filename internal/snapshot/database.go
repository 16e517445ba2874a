package snapshot

import (
	"slices"

	"squid/internal/relation"
)

// WriteDatabase serializes a database: relations in insertion order
// (schema, NULL bitmaps, column storage: INTEGER as a base and offsets,
// TEXT dictionary-encoded) followed by the entity/property kind
// annotations.
func WriteDatabase(w *Writer, db *relation.Database) {
	w.String(db.Name)
	names := db.RelationNames()
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		writeRelation(w, db.Relation(name))
	}
	// Kind annotations, in relation order for determinism.
	for _, name := range names {
		w.Uvarint(uint64(db.Kind(name)))
	}
}

// ReadDatabase decodes a database written by WriteDatabase.
func ReadDatabase(r *Reader) *relation.Database {
	db := relation.NewDatabase(r.String())
	n := r.Len()
	for i := 0; i < n && r.Err() == nil; i++ {
		rel := readRelation(r)
		if r.Err() != nil {
			break
		}
		if db.Relation(rel.Name) != nil {
			r.Fail("relation %q appears twice", rel.Name)
			break
		}
		db.AddRelation(rel)
	}
	for _, name := range db.RelationNames() {
		if r.Err() != nil {
			break
		}
		switch relation.EntityKind(r.Uvarint()) {
		case relation.KindEntity:
			db.MarkEntity(name)
		case relation.KindProperty:
			db.MarkProperty(name)
		}
	}
	return db
}

func writeRelation(w *Writer, rel *relation.Relation) {
	w.String(rel.Name)
	w.String(rel.PrimaryKey)
	w.Uvarint(uint64(len(rel.Foreign)))
	for _, fk := range rel.Foreign {
		w.String(fk.Column)
		w.String(fk.RefRelation)
		w.String(fk.RefColumn)
	}
	w.Int(rel.NumRows())
	cols := rel.Columns()
	w.Uvarint(uint64(len(cols)))
	for _, c := range cols {
		writeColumn(w, c)
	}
}

func readRelation(r *Reader) *relation.Relation {
	name := r.String()
	pk := r.String()
	nfk := r.Len()
	var fks []relation.ForeignKey
	for i := 0; i < nfk && r.Err() == nil; i++ {
		fks = append(fks, relation.ForeignKey{
			Column:      r.String(),
			RefRelation: r.String(),
			RefColumn:   r.String(),
		})
	}
	numRows := r.Int()
	ncols := r.Len()
	var cols []*relation.Column
	// Restore trusts its arguments: a column named twice, or a key naming
	// no column, is caught here.
	have := make(map[string]bool)
	for i := 0; i < ncols && r.Err() == nil; i++ {
		c := readColumn(r, numRows)
		if r.Err() != nil {
			break
		}
		if have[c.Name] {
			r.Fail("relation %q: column %q appears twice", name, c.Name)
			break
		}
		have[c.Name] = true
		cols = append(cols, c)
	}
	if r.Err() == nil && numRows < 0 {
		r.Fail("relation %q: %d rows", name, numRows)
	}
	if r.Err() == nil && pk != "" && !have[pk] {
		r.Fail("relation %q: primary key %q names no column", name, pk)
	}
	for _, fk := range fks {
		if r.Err() == nil && !have[fk.Column] {
			r.Fail("relation %q: foreign key %q names no column", name, fk.Column)
		}
	}
	if r.Err() != nil {
		return relation.New(name)
	}
	return relation.Restore(name, pk, fks, cols, numRows)
}

func writeColumn(w *Writer, c *relation.Column) {
	w.String(c.Name)
	w.Uvarint(uint64(c.Type))
	w.Bools(c.RawNulls())
	switch c.Type {
	case relation.Int:
		base, width, offs := c.IntLayout()
		w.Varint(base)
		w.Uvarint(uint64(width))
		w.Block(offs)
	case relation.Float:
		w.Floats(c.RawFloats())
	default:
		w.Strings(c.Dict().Values())
		w.Int32s(c.RawCodes())
	}
}

func readColumn(r *Reader, numRows int) *relation.Column {
	name := r.String()
	typ := relation.ColType(r.Uvarint())
	nulls := r.Bools()
	if nulls != nil && len(nulls) != numRows {
		r.Fail("column %q: null bitmap has %d bits, want %d", name, len(nulls), numRows)
		return nil
	}
	check := func(n int) bool {
		if n != numRows {
			r.Fail("column %q: %d cells, want %d", name, n, numRows)
			return false
		}
		return true
	}
	switch typ {
	case relation.Int:
		base, width := r.Varint(), r.Uvarint()
		if r.Err() == nil && width != 1 && width != 2 && width != 4 && width != 8 {
			r.Fail("column %q: offsets %d bytes wide", name, width)
		}
		if r.Err() == nil && (numRows < 0 || numRows > maxLen) {
			r.Fail("column %q: %d cells", name, numRows)
		}
		if r.Err() != nil {
			return nil
		}
		offs := r.Block(numRows * int(width))
		if r.Err() != nil {
			return nil
		}
		for row, null := range nulls {
			// A NULL cell's offset is 0, so the file is a function of the
			// cells (relation.Column.IntLayout).
			if null && slices.ContainsFunc(offs[row*int(width):(row+1)*int(width)], func(b byte) bool { return b != 0 }) {
				r.Fail("column %q: NULL cell in row %d holds an offset", name, row)
				return nil
			}
		}
		return relation.RestoreIntColumn(name, base, int(width), offs, nulls)
	case relation.Float:
		flts := r.Floats()
		if r.Err() != nil || !check(len(flts)) {
			return nil
		}
		return relation.RestoreFloatColumn(name, flts, nulls)
	case relation.String:
		vals := r.Strings()
		codes := r.Int32s()
		if r.Err() != nil || !check(len(codes)) {
			return nil
		}
		for row, code := range codes {
			// A NULL cell holds NoCode and no other cell does: scans that
			// skip NULLs index the dictionary with every code they meet.
			want := code >= 0 && int(code) < len(vals)
			if nulls != nil && nulls[row] {
				want = code == relation.NoCode
			}
			if !want {
				r.Fail("column %q: code %d in row %d (dictionary of %d values)", name, code, row, len(vals))
				return nil
			}
		}
		return relation.RestoreStringColumn(name, codes, relation.RestoreDict(vals), nulls)
	default:
		r.Fail("column %q: unknown type %d", name, typ)
		return nil
	}
}
