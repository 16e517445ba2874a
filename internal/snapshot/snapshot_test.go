package snapshot

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"squid/internal/relation"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header()
	w.Varint(-12345)
	w.Uvarint(67890)
	w.Float(math.Pi)
	w.Bool(true)
	w.String("héllo\x00world")
	w.Strings([]string{"a", "", "c"})
	w.Floats([]float64{0, -1.5, math.Inf(1)})
	w.Block([]byte{0, 1, 0xff})
	w.Int32s([]int32{-1, 0, 7})
	w.Bools([]bool{true, false, true, true, false, true, false, false, true})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Header()
	if got := r.Varint(); got != -12345 {
		t.Errorf("Varint=%d", got)
	}
	if got := r.Uvarint(); got != 67890 {
		t.Errorf("Uvarint=%d", got)
	}
	if got := r.Float(); got != math.Pi {
		t.Errorf("Float=%v", got)
	}
	if !r.Bool() {
		t.Error("Bool=false")
	}
	if got := r.String(); got != "héllo\x00world" {
		t.Errorf("String=%q", got)
	}
	if got := r.Strings(); !reflect.DeepEqual(got, []string{"a", "", "c"}) {
		t.Errorf("Strings=%v", got)
	}
	if got := r.Floats(); !reflect.DeepEqual(got, []float64{0, -1.5, math.Inf(1)}) {
		t.Errorf("Floats=%v", got)
	}
	if got := r.Block(3); !reflect.DeepEqual(got, []byte{0, 1, 0xff}) {
		t.Errorf("Block=%v", got)
	}
	if got := r.Int32s(); !reflect.DeepEqual(got, []int32{-1, 0, 7}) {
		t.Errorf("Int32s=%v", got)
	}
	if got := r.Bools(); !reflect.DeepEqual(got, []bool{true, false, true, true, false, true, false, false, true}) {
		t.Errorf("Bools=%v", got)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedLengthCostsTheStream: a length prefix that claims far more
// than the stream holds fails the read having allocated what arrived,
// not what was claimed (a fuzzed file would otherwise ask for gigabytes).
func TestDamagedLengthCostsTheStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uvarint(1 << 27)
	w.raw(make([]byte, 100))
	_ = w.Flush()
	reads := map[string]func(*Reader){
		"Int32s":  func(r *Reader) { r.Int32s() },
		"Floats":  func(r *Reader) { r.Floats() },
		"Bools":   func(r *Reader) { r.Bools() },
		"String":  func(r *Reader) { _ = r.String() },
		"Strings": func(r *Reader) { r.Strings() },
	}
	for name, read := range reads {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(bytes.NewReader(buf.Bytes()))
		read(r)
		runtime.ReadMemStats(&after)
		if r.Err() == nil {
			t.Errorf("%s: a block of 2^27 elements read from a 100-byte stream", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Errorf("%s: allocated %d MB for a 100-byte stream", name, grew>>20)
		}
	}
}

func TestVersionPolicy(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.raw([]byte(Magic))
	w.Uvarint(Version + 1)
	_ = w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Header()
	if !errors.Is(r.Err(), ErrVersion) {
		t.Errorf("future version accepted: %v", r.Err())
	}

	r = NewReader(bytes.NewReader([]byte("XXXXgarbage")))
	r.Header()
	if r.Err() == nil {
		t.Error("bad magic accepted")
	}
}

func TestDatabaseRoundTrip(t *testing.T) {
	db := relation.NewDatabase("rt")
	people := relation.New("people",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("score", relation.Float),
	).SetPrimaryKey("id")
	people.MustAppend(relation.IntVal(1), relation.StringVal("a"), relation.FloatVal(0.5))
	people.MustAppend(relation.IntVal(2), relation.Null, relation.Null)
	people.MustAppend(relation.IntVal(3), relation.StringVal("a"), relation.FloatVal(-2))
	db.AddRelation(people)
	db.MarkEntity("people")
	tags := relation.New("tags",
		relation.Col("pid", relation.Int),
		relation.Col("tag", relation.String),
	).AddForeignKey("pid", "people", "id")
	tags.MustAppend(relation.IntVal(1), relation.StringVal("x"))
	db.AddRelation(tags)
	db.MarkProperty("tags")

	var buf bytes.Buffer
	w := NewWriter(&buf)
	WriteDatabase(w, db)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	got := ReadDatabase(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || !reflect.DeepEqual(got.RelationNames(), db.RelationNames()) {
		t.Fatalf("database shape diverged: %v", got.RelationNames())
	}
	if got.Kind("people") != relation.KindEntity || got.Kind("tags") != relation.KindProperty {
		t.Error("kinds lost")
	}
	gp := got.Relation("people")
	if gp.PrimaryKey != "id" || gp.NumRows() != 3 {
		t.Fatalf("people shape: pk=%q rows=%d", gp.PrimaryKey, gp.NumRows())
	}
	for row := 0; row < 3; row++ {
		for _, col := range []string{"id", "name", "score"} {
			if want, g := people.Get(row, col), gp.Get(row, col); !want.Equal(g) {
				t.Errorf("cell (%d,%s): %v != %v", row, col, g, want)
			}
		}
	}
	if gt := got.Relation("tags"); len(gt.Foreign) != 1 || gt.Foreign[0].RefRelation != "people" {
		t.Error("foreign keys lost")
	}
	// Dictionary restored with identical codes.
	if gp.Column("name").Code(0) != gp.Column("name").Code(2) {
		t.Error("dictionary codes diverged for equal values")
	}
	// Restored relations accept appends (dict keeps interning).
	gp.MustAppend(relation.IntVal(4), relation.StringVal("b"), relation.FloatVal(1))
	if gp.NumRows() != 4 || gp.Get(3, "name").Str() != "b" {
		t.Error("append to restored relation failed")
	}
}

// intColumn is an INTEGER column holding vals.
func intColumn(name string, vals ...int64) *relation.Column {
	c := relation.NewColumn(name, relation.Int)
	for _, v := range vals {
		c.Append(relation.IntVal(v))
	}
	return c
}

// TestReadDatabaseRejects: relation.Restore and the scans over a restored
// column trust what they are handed — a key naming no column, a column
// or relation named twice (both panic in package relation), a NoCode
// cell that is not NULL (a scan indexes the dictionary with it) — so
// ReadDatabase checks each where it reads it.
func TestReadDatabaseRejects(t *testing.T) {
	cols := func() []*relation.Column {
		return []*relation.Column{intColumn("id", 7)}
	}
	one := func(rels ...*relation.Relation) *relation.Database {
		db := relation.NewDatabase("d")
		for _, r := range rels {
			db.AddRelation(r)
		}
		return db
	}
	cases := map[string]*relation.Database{
		"primary key names no column": one(relation.Restore("r", "nope", nil, cols(), 1)),
		"foreign key names no column": one(relation.Restore("r", "id", []relation.ForeignKey{{Column: "nope", RefRelation: "r", RefColumn: "id"}}, cols(), 1)),
		"negative row count":          one(relation.Restore("r", "", nil, nil, -1)),
		"NoCode in a cell that is not NULL": one(relation.Restore("r", "", nil, []*relation.Column{
			relation.RestoreStringColumn("s", []int32{relation.NoCode}, relation.RestoreDict([]string{"a"}), nil)}, 1)),
		"code past the dictionary": one(relation.Restore("r", "", nil, []*relation.Column{
			relation.RestoreStringColumn("s", []int32{1}, relation.RestoreDict([]string{"a"}), nil)}, 1)),
	}
	streams := map[string][]byte{}
	for name, db := range cases {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		WriteDatabase(w, db)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		streams[name] = buf.Bytes()
	}
	// Names twice: package relation refuses to build these, so the valid
	// stream of two relations (of two columns) is renamed in place.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	WriteDatabase(w, one(
		relation.Restore("r1", "", nil, []*relation.Column{intColumn("c1"), intColumn("c2")}, 0),
		relation.Restore("r2", "", nil, nil, 0)))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	streams["column named twice"] = bytes.Replace(buf.Bytes(), []byte("c2"), []byte("c1"), 1)
	streams["relation named twice"] = bytes.Replace(buf.Bytes(), []byte("r2"), []byte("r1"), 1)
	for name, stream := range streams {
		r := NewReader(bytes.NewReader(stream))
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: ReadDatabase panicked: %v", name, p)
				}
			}()
			ReadDatabase(r)
		}()
		if r.Err() == nil {
			t.Errorf("%s: read without an error", name)
		}
	}
}
