package relation

import (
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must be null")
	}
	if IntVal(7).Int() != 7 {
		t.Error("IntVal round trip")
	}
	if FloatVal(2.5).Float() != 2.5 {
		t.Error("FloatVal round trip")
	}
	if StringVal("x").Str() != "x" {
		t.Error("StringVal round trip")
	}
	if IntVal(3).Float() != 3.0 {
		t.Error("Int should widen to Float")
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !IntVal(3).Equal(FloatVal(3)) {
		t.Error("3 == 3.0 expected")
	}
	if IntVal(3).Equal(FloatVal(3.5)) {
		t.Error("3 != 3.5 expected")
	}
	if IntVal(3).Equal(StringVal("3")) {
		t.Error("int vs string must differ")
	}
	if !Null.Equal(Null) {
		t.Error("NULL equals NULL in storage comparison")
	}
	if Null.Equal(IntVal(0)) {
		t.Error("NULL != 0")
	}
}

func TestValueLessOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{IntVal(1), IntVal(2), true},
		{IntVal(2), IntVal(1), false},
		{FloatVal(1.5), IntVal(2), true},
		{StringVal("a"), StringVal("b"), true},
		{Null, IntVal(0), true},
		{IntVal(0), Null, false},
		{Null, Null, false},
	}
	for i, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("case %d: Less(%v,%v)=%v want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestValueSQLLiteral(t *testing.T) {
	if got := StringVal("Comedy").SQLLiteral(); got != "'Comedy'" {
		t.Errorf("got %q", got)
	}
	if got := IntVal(40).SQLLiteral(); got != "40" {
		t.Errorf("got %q", got)
	}
	if got := Null.SQLLiteral(); got != "NULL" {
		t.Errorf("got %q", got)
	}
}

func TestValueLessIrreflexive(t *testing.T) {
	f := func(x int64) bool {
		v := IntVal(x)
		return !v.Less(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueLessTrichotomyInts(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := IntVal(a), IntVal(b)
		lt, gt, eq := va.Less(vb), vb.Less(va), va.Equal(vb)
		n := 0
		if lt {
			n++
		}
		if gt {
			n++
		}
		if eq {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColumnAppendGet(t *testing.T) {
	c := NewColumn("age", Int)
	for i := int64(0); i < 10; i++ {
		if err := c.Append(IntVal(i * 2)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 10 {
		t.Fatalf("len=%d", c.Len())
	}
	if c.Get(3).Int() != 6 {
		t.Errorf("Get(3)=%v", c.Get(3))
	}
	if c.Int64(4) != 8 {
		t.Errorf("Int64(4)=%d", c.Int64(4))
	}
}

func TestColumnNulls(t *testing.T) {
	c := NewColumn("name", String)
	c.Append(StringVal("a"))
	c.Append(Null)
	c.Append(StringVal("b"))
	if c.IsNull(0) || !c.IsNull(1) || c.IsNull(2) {
		t.Error("null bitmap wrong")
	}
	if !c.Get(1).IsNull() {
		t.Error("Get on null cell must be Null")
	}
	if c.Get(2).Str() != "b" {
		t.Error("value after null corrupted")
	}
}

func TestColumnTypeMismatch(t *testing.T) {
	c := NewColumn("age", Int)
	if err := c.Append(StringVal("x")); err == nil {
		t.Error("expected type error")
	}
	f := NewColumn("score", Float)
	if err := f.Append(IntVal(3)); err != nil {
		t.Errorf("int should coerce into float column: %v", err)
	}
	if f.Float64(0) != 3.0 {
		t.Error("coerced value wrong")
	}
}

func TestColumnSet(t *testing.T) {
	c := NewColumn("x", Int)
	c.Append(IntVal(1))
	c.Append(IntVal(2))
	if err := c.Set(0, IntVal(9)); err != nil {
		t.Fatal(err)
	}
	if c.Get(0).Int() != 9 {
		t.Error("Set failed")
	}
	if err := c.Set(1, Null); err != nil {
		t.Fatal(err)
	}
	if !c.IsNull(1) {
		t.Error("Set(Null) failed")
	}
	if err := c.Set(1, IntVal(5)); err != nil {
		t.Fatal(err)
	}
	if c.IsNull(1) || c.Get(1).Int() != 5 {
		t.Error("Set after null failed")
	}
}

func newPersonRel() *Relation {
	r := New("person",
		Col("id", Int),
		Col("name", String),
		Col("gender", String),
		Col("age", Int),
	).SetPrimaryKey("id")
	rows := []struct {
		id     int64
		name   string
		gender string
		age    int64
	}{
		{1, "Tom Cruise", "Male", 50},
		{2, "Clint Eastwood", "Male", 90},
		{3, "Tom Hanks", "Male", 60},
		{4, "Julia Roberts", "Female", 50},
		{5, "Emma Stone", "Female", 29},
		{6, "Julianne Moore", "Female", 60},
	}
	for _, p := range rows {
		r.MustAppend(IntVal(p.id), StringVal(p.name), StringVal(p.gender), IntVal(p.age))
	}
	return r
}

func TestRelationBasics(t *testing.T) {
	r := newPersonRel()
	if r.NumRows() != 6 || r.NumCols() != 4 {
		t.Fatalf("dims %dx%d", r.NumRows(), r.NumCols())
	}
	if r.Get(1, "name").Str() != "Clint Eastwood" {
		t.Error("Get by name failed")
	}
	if r.ColumnIndex("gender") != 2 {
		t.Error("ColumnIndex")
	}
	if r.ColumnIndex("missing") != -1 {
		t.Error("missing column should be -1")
	}
	if !r.HasColumn("age") || r.HasColumn("nope") {
		t.Error("HasColumn")
	}
	row := r.Row(4)
	if row[1].Str() != "Emma Stone" || row[3].Int() != 29 {
		t.Errorf("Row(4)=%v", row)
	}
}

func TestRelationAppendArity(t *testing.T) {
	r := New("t", Col("a", Int), Col("b", Int))
	if err := r.Append(IntVal(1)); err == nil {
		t.Error("arity mismatch must error")
	}
}

func TestRelationDistinctValues(t *testing.T) {
	r := newPersonRel()
	vals := r.DistinctValues("gender")
	if len(vals) != 2 || vals[0].Str() != "Female" || vals[1].Str() != "Male" {
		t.Errorf("distinct=%v", vals)
	}
	ages := r.DistinctValues("age")
	if len(ages) != 4 {
		t.Errorf("distinct ages=%v", ages)
	}
	if ages[0].Int() != 29 {
		t.Error("distinct values must be sorted")
	}
}

func TestDatabaseKinds(t *testing.T) {
	d := NewDatabase("t")
	d.AddRelation(New("person", Col("id", Int)))
	d.AddRelation(New("genre", Col("id", Int)))
	d.AddRelation(New("castinfo", Col("pid", Int)))
	d.MarkEntity("person")
	d.MarkProperty("genre")
	if d.Kind("person") != KindEntity || d.Kind("genre") != KindProperty || d.Kind("castinfo") != KindUnknown {
		t.Error("kinds wrong")
	}
	if got := d.EntityRelations(); len(got) != 1 || got[0] != "person" {
		t.Errorf("entities=%v", got)
	}
	if got := d.PropertyRelations(); len(got) != 1 || got[0] != "genre" {
		t.Errorf("properties=%v", got)
	}
}

func TestDatabaseOrderAndSizes(t *testing.T) {
	d := NewDatabase("t")
	d.AddRelation(newPersonRel())
	d.AddRelation(New("empty", Col("x", Int)))
	names := d.RelationNames()
	if len(names) != 2 || names[0] != "person" || names[1] != "empty" {
		t.Errorf("names=%v", names)
	}
	if d.TotalRows() != 6 {
		t.Errorf("TotalRows=%d", d.TotalRows())
	}
	if d.ByteSize() <= 0 {
		t.Error("ByteSize must be positive")
	}
	if d.NumRelations() != 2 {
		t.Error("NumRelations")
	}
}

func TestColumnByteSizeGrows(t *testing.T) {
	c := NewColumn("s", String)
	base := c.ByteSize()
	c.Append(StringVal("hello world"))
	if c.ByteSize() <= base {
		t.Error("ByteSize should grow after append")
	}
}

func TestNullBackfill(t *testing.T) {
	// Appending a NULL after non-NULLs must backfill the bitmap.
	c := NewColumn("x", Int)
	c.Append(IntVal(1))
	c.Append(IntVal(2))
	c.Append(Null)
	if c.IsNull(0) || c.IsNull(1) || !c.IsNull(2) {
		t.Error("backfilled bitmap wrong")
	}
	// And subsequent non-NULL appends keep the bitmap in sync.
	c.Append(IntVal(4))
	if c.IsNull(3) {
		t.Error("bitmap out of sync after backfill")
	}
	if c.Len() != 4 {
		t.Error("len wrong")
	}
}
