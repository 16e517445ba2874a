package squid

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"squid/internal/abduction"
	"squid/internal/sqlgen"
)

// academicsDB builds the Fig 1 database through the public API.
func academicsDB() *Database {
	db := NewDatabase("cs_academics")
	a := NewRelation("academics",
		Col("id", Int),
		Col("name", String),
	).SetPrimaryKey("id")
	names := []string{"Thomas Cormen", "Dan Suciu", "Jiawei Han", "Sam Madden", "James Kurose", "Joseph Hellerstein"}
	for i, n := range names {
		a.MustAppend(IntVal(int64(100+i)), StringVal(n))
	}
	db.AddRelation(a)
	db.MarkEntity("academics")

	r := NewRelation("research",
		Col("aid", Int),
		Col("interest", String),
	).AddForeignKey("aid", "academics", "id")
	rows := []struct {
		aid      int64
		interest string
	}{
		{100, "algorithms"}, {101, "data management"}, {102, "data mining"},
		{103, "data management"}, {103, "distributed systems"},
		{104, "computer networks"}, {105, "data management"}, {105, "distributed systems"},
	}
	for _, row := range rows {
		r.MustAppend(IntVal(row.aid), StringVal(row.interest))
	}
	db.AddRelation(r)
	return db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Rho = 0.2
	sys.SetParams(params)
	if sys.Params().Rho != 0.2 {
		t.Error("SetParams/Params round trip")
	}

	disc, err := sys.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"})
	if err != nil {
		t.Fatal(err)
	}
	if disc.Entity != "academics" || disc.Attribute != "name" {
		t.Errorf("base query %s.%s", disc.Entity, disc.Attribute)
	}
	if !strings.Contains(disc.SQL, "interest = 'data management'") {
		t.Errorf("SQL missing intent filter:\n%s", disc.SQL)
	}
	if len(disc.Output) != 3 {
		t.Errorf("output=%v", disc.Output)
	}
	joins, sels := disc.PredicateCount()
	if joins != 1 || sels != 1 {
		t.Errorf("predicates: %d joins, %d selections", joins, sels)
	}

	// The engine plan must reproduce the αDB row-set output.
	res, err := sys.ExecuteContext(context.Background(), disc.Plan())
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != len(disc.Output) {
		t.Errorf("engine rows=%d output=%d", res.NumRows(), len(disc.Output))
	}
}

func TestPublicAPIErrors(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.DiscoverContext(context.Background(), nil); err == nil {
		t.Error("empty examples must error")
	}
	if _, err := sys.DiscoverContext(context.Background(), []string{"Nobody Here"}); err == nil {
		t.Error("unknown example must error")
	}
	// Database with no entity annotations fails the offline phase.
	bad := NewDatabase("bad")
	bad.AddRelation(NewRelation("t", Col("id", Int)))
	if _, err := Build(bad, DefaultBuildConfig()); err == nil {
		t.Error("Build must fail without entity relations")
	}
}

func TestStatsExposed(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := sys.Stats()
	if s.NumRelations != 2 {
		t.Errorf("relations=%d", s.NumRelations)
	}
	if sys.ExecutableDB().Relation("academics") == nil {
		t.Error("executable DB missing base relation")
	}
}

func TestRecommendExamples(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Rho = 0.2
	sys.SetParams(params)
	disc, err := sys.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden"})
	if err != nil {
		t.Fatal(err)
	}
	recs := disc.RecommendExamples(3)
	for _, r := range recs {
		if r == "Dan Suciu" || r == "Sam Madden" {
			t.Errorf("recommendation %q repeats an example", r)
		}
	}
}

// TestDiscoverAllRanked: the abduction ranks one result per candidate
// base query by posterior score, best first, and DiscoverContext answers
// with the first. A second entity relation holding the same names makes
// the examples match two base queries.
func TestDiscoverAllRanked(t *testing.T) {
	db := academicsDB()
	speakers := NewRelation("speakers", Col("id", Int), Col("name", String)).SetPrimaryKey("id")
	for i, n := range []string{"Dan Suciu", "Sam Madden", "Ada Lovelace"} {
		speakers.MustAppend(IntVal(int64(i)), StringVal(n))
	}
	db.AddRelation(speakers)
	db.MarkEntity("speakers")
	sys, err := Build(db, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	examples := []string{"Dan Suciu", "Sam Madden"}
	all, err := abduction.DiscoverCtx(context.Background(), sys.AlphaDB().Snapshot(), examples, sys.Params(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Fatalf("%d candidates, want one per entity relation holding the names", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Score > all[i-1].Score {
			t.Errorf("result %d scores %v above result %d's %v", i, all[i].Score, i-1, all[i-1].Score)
		}
	}
	single, err := sys.DiscoverContext(context.Background(), examples)
	if err != nil {
		t.Fatal(err)
	}
	if single.Result().Base != all[0].Base || single.Result().Score != all[0].Score || single.SQL != sqlgen.AlphaSQL(all[0]) {
		t.Errorf("DiscoverContext answered %s.%s (score %v), want the first-ranked %s.%s (score %v)",
			single.Entity, single.Attribute, single.Result().Score, all[0].Base.Entity, all[0].Base.Attr, all[0].Score)
	}
}

func TestFacadeIncrementalMaintenance(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A new data-management researcher arrives.
	if err := sys.InsertBatchContext(context.Background(), []InsertOp{
		{Rel: "academics", Vals: []Value{IntVal(200), StringVal("New Researcher")}},
		{Rel: "research", Vals: []Value{IntVal(200), StringVal("data management")}},
	}); err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Rho = 0.2
	sys.SetParams(params)
	disc, err := sys.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range disc.Output {
		if v == "New Researcher" {
			found = true
		}
	}
	if !found {
		t.Errorf("incrementally inserted researcher missing from output: %v", disc.Output)
	}
}

func TestDiscoverWithoutDisambiguation(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	d1, err := sys.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden"})
	if err != nil {
		t.Fatal(err)
	}
	// A nil resolver takes the first candidate row of every example.
	d2, err := abduction.DiscoverCtx(context.Background(), sys.AlphaDB().Snapshot(), []string{"Dan Suciu", "Sam Madden"}, sys.Params(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// No ambiguity in this fixture: identical outputs.
	if strings.Join(d1.Output, ",") != strings.Join(d2[0].OutputValues(), ",") {
		t.Error("disambiguation changed output on unambiguous data")
	}
}

// TestNaNCellIsAbsentFromNumericStats pins what a NaN in a DOUBLE column
// (a CSV load can carry one: strconv.ParseFloat accepts "NaN") is to a
// numeric statistic: an absent cell, at build and on the insert path. No
// order places a NaN, so one in the sorted value→row index left it
// unsorted — ψ, the index range and the row-order scan disagreed — and
// one in a first example gave numericContext lo = hi = NaN: a filter its
// own examples fail (Definition 3.1) under a memo key that never
// compares equal to itself, stored anew by every discovery.
func TestNaNCellIsAbsentFromNumericStats(t *testing.T) {
	const rows = 400
	rng := rand.New(rand.NewSource(5))
	reading := func(i int) Value {
		switch {
		case i%5 == 0:
			return FloatVal(math.NaN())
		case i%13 == 0:
			return Null
		}
		return FloatVal(float64(rng.Intn(90)))
	}
	db := NewDatabase("sensors")
	sensor := NewRelation("sensor", Col("id", Int), Col("name", String), Col("site", String), Col("reading", Float)).SetPrimaryKey("id")
	for i := 0; i < rows/2; i++ {
		sensor.MustAppend(IntVal(int64(i)), StringVal(fmt.Sprintf("Sensor %d", i)), StringVal(fmt.Sprintf("Site %d", i%4)), reading(i))
	}
	db.AddRelation(sensor)
	db.MarkEntity("sensor")
	sys, err := Build(db, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The second half arrives through the insert path.
	for i := rows / 2; i < rows; i++ {
		vals := []Value{IntVal(int64(i)), StringVal(fmt.Sprintf("Sensor %d", i)), StringVal(fmt.Sprintf("Site %d", i%4)), reading(i)}
		if err := sys.InsertBatchContext(context.Background(), []InsertOp{{Rel: "sensor", Vals: vals}}); err != nil {
			t.Fatal(err)
		}
	}

	ep := sys.AlphaDB().Snapshot()
	info := ep.Entity("sensor")
	prop := info.BasicByAttr("reading")
	col := ep.DB.Relation("sensor").Column("reading")
	for row := 0; row < rows; row++ {
		if _, ok := prop.NumValue(row); ok != (!col.IsNull(row) && !math.IsNaN(col.Float64(row))) {
			t.Fatalf("row %d: NumValue present = %v for cell %v", row, ok, col.Get(row))
		}
	}
	// Index ≡ scan ≡ SatisfiedBy ≡ ψ, on ranges over and around the data.
	for i := 0; i < 200; i++ {
		lo := float64(rng.Intn(100) - 5)
		hi := lo + float64(rng.Intn(40))
		f := &Filter{Kind: abduction.BasicNumeric, Basic: prop, Lo: lo, Hi: hi}
		var scan, satisfied []int
		for row := 0; row < rows; row++ {
			if v := col.Float64(row); !col.IsNull(row) && v >= lo && v <= hi {
				scan = append(scan, row)
			}
			if f.SatisfiedBy(info, row) {
				satisfied = append(satisfied, row)
			}
		}
		got := f.RowSet().ToSorted()
		if !slices.Equal(got, scan) || !slices.Equal(got, satisfied) {
			t.Fatalf("[%g, %g]: index %d rows, scan %d, SatisfiedBy %d", lo, hi, len(got), len(scan), len(satisfied))
		}
		if psi := prop.RangeSelectivity(lo, hi); psi != float64(len(scan))/rows {
			t.Fatalf("[%g, %g]: ψ = %g with %d of %d rows in range", lo, hi, psi, len(scan), rows)
		}
	}

	// Sensors 0, 4 and 8 share a site; sensor 0 reads NaN. Every context
	// the discovery weighs, kept or dropped, is a filter its examples
	// satisfy, and materializing them all again stores nothing new.
	examples := []string{"Sensor 0", "Sensor 4", "Sensor 8"}
	cache := sys.AlphaDB().SelectivityCache()
	var entries int
	for i := 0; i < 100; i++ {
		d, err := sys.DiscoverContext(context.Background(), examples)
		if err != nil {
			t.Fatal(err)
		}
		for _, dec := range d.Result().Decisions {
			set := dec.Filter.RowSet()
			for _, row := range d.Result().ExampleRows {
				if !dec.Filter.SatisfiedBy(info, row) || !set.Contains(row) {
					t.Fatalf("context %v does not hold example row %d", dec.Filter, row)
				}
			}
		}
		if i == 0 {
			entries = cache.Len()
		} else if n := cache.Len(); n != entries {
			t.Fatalf("discovery %d: %d memoized row sets, %d after the first", i+1, n, entries)
		}
	}
}
