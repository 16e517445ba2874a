package abduction

import (
	"math"
	"testing"

	"squid/internal/adb"
	"squid/internal/relation"
)

// fig6DB builds the Fig 6 sample database: six persons with gender and
// age, examples Tom Cruise and Clint Eastwood.
func fig6DB(t *testing.T) *adb.AlphaDB {
	t.Helper()
	db := relation.NewDatabase("fig6")
	p := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("gender", relation.String),
		relation.Col("age", relation.Int),
	).SetPrimaryKey("id")
	rows := []struct {
		name   string
		gender string
		age    int64
	}{
		{"Tom Cruise", "Male", 50},
		{"Clint Eastwood", "Male", 90},
		{"Tom Hanks", "Male", 60},
		{"Julia Roberts", "Female", 50},
		{"Emma Stone", "Female", 29},
		{"Julianne Moore", "Female", 60},
	}
	for i, r := range rows {
		p.MustAppend(relation.IntVal(int64(i+1)), relation.StringVal(r.name),
			relation.StringVal(r.gender), relation.IntVal(r.age))
	}
	db.AddRelation(p)
	db.MarkEntity("person")
	a, err := adb.Build(db, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func findContext(cs []Context, attr string) *Context {
	for i := range cs {
		if cs[i].Filter.Attr() == attr {
			return &cs[i]
		}
	}
	return nil
}

// TestFig6Contexts checks the §3.2 example: given Tom Cruise and Clint
// Eastwood, the minimal valid filters are gender=Male and age∈[50,90].
func TestFig6Contexts(t *testing.T) {
	a := fig6DB(t)
	info := a.Entity("person")
	contexts := DiscoverContexts(info, []int{0, 1}, DefaultParams())
	if len(contexts) != 2 {
		t.Fatalf("contexts=%d want 2 (%v)", len(contexts), contexts)
	}
	g := findContext(contexts, "gender")
	if g == nil || g.Filter.Value() != "Male" {
		t.Errorf("gender context missing or wrong: %+v", g)
	}
	age := findContext(contexts, "age")
	if age == nil || age.Filter.Lo != 50 || age.Filter.Hi != 90 {
		t.Errorf("age context wrong: %+v", age)
	}
	// §4.2.1: ψ(gender=Male) = 1/2, ψ(age[50,90]) = 5/6.
	if got := g.Filter.Selectivity(); got != 0.5 {
		t.Errorf("ψ(Male)=%v", got)
	}
	if got := age.Filter.Selectivity(); math.Abs(got-5.0/6.0) > 1e-9 {
		t.Errorf("ψ(age)=%v", got)
	}
}

// TestContextsAreMinimalAndValid checks Definitions 3.1/3.2: every
// discovered filter is satisfied by every example (validity), numeric
// ranges are the tightest possible, and derived θ is the minimum
// association strength among examples (minimality).
func TestContextsAreMinimalAndValid(t *testing.T) {
	a := actorsDB(t, 100, 50, 1)
	info := a.Entity("person")
	examples := []int{0, 1, 2, 3} // comedians
	contexts := DiscoverContexts(info, examples, DefaultParams())
	if len(contexts) == 0 {
		t.Fatal("no contexts discovered")
	}
	for _, c := range contexts {
		if !c.Filter.validFor(info, examples) {
			t.Errorf("invalid filter discovered: %v", c.Filter)
		}
		switch c.Filter.Kind {
		case BasicNumeric:
			// Tightening either bound must invalidate the filter.
			tighterLo := *c.Filter
			tighterLo.Lo = c.Filter.Lo + 1e-9
			tighterHi := *c.Filter
			tighterHi.Hi = c.Filter.Hi - 1e-9
			if c.Filter.Lo != c.Filter.Hi && tighterLo.validFor(info, examples) && tighterHi.validFor(info, examples) {
				t.Errorf("numeric filter not minimal: %v", c.Filter)
			}
		case Derived:
			tighter := *c.Filter
			tighter.Theta = c.Filter.Theta + 1
			if tighter.validFor(info, examples) {
				t.Errorf("derived filter not minimal: %v", c.Filter)
			}
		}
	}
}

// TestDerivedContextThetaMin checks the §6.1.2 example: two persons with
// 3 and 5 comedies produce the context ⟨genre, Comedy, 3⟩.
func TestDerivedContextThetaMin(t *testing.T) {
	a := actorsDB(t, 60, 40, 2)
	info := a.Entity("person")
	ptg := info.DerivedByAttr("movie:genre")
	if ptg == nil {
		t.Fatal("persontogenre missing")
	}
	// Pick two comedians with known distinct comedy counts.
	comedy, _ := ptg.LookupCode("Comedy")
	c0 := ptg.StrengthOfCode(0, comedy)
	c1 := ptg.StrengthOfCode(1, comedy)
	contexts := DiscoverContexts(info, []int{0, 1}, DefaultParams())
	var derived *Context
	for i := range contexts {
		if contexts[i].Filter.Kind == Derived && contexts[i].Filter.Attr() == "movie:genre" && contexts[i].Filter.Value() == "Comedy" {
			derived = &contexts[i]
		}
	}
	if derived == nil {
		t.Fatal("comedy derived context missing")
	}
	want := c0
	if c1 < c0 {
		want = c1
	}
	if derived.Filter.Theta != want {
		t.Errorf("θ=%d want min(%d,%d)", derived.Filter.Theta, c0, c1)
	}
}

func TestNumericContextSkippedOnMissingValue(t *testing.T) {
	db := relation.NewDatabase("t")
	p := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("tag", relation.String),
		relation.Col("age", relation.Int),
	).SetPrimaryKey("id")
	p.MustAppend(relation.IntVal(1), relation.StringVal("a"), relation.IntVal(50))
	p.MustAppend(relation.IntVal(2), relation.StringVal("a"), relation.Null)
	p.MustAppend(relation.IntVal(3), relation.StringVal("b"), relation.IntVal(60))
	db.AddRelation(p)
	db.MarkEntity("person")
	a, err := adb.Build(db, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	contexts := DiscoverContexts(a.Entity("person"), []int{0, 1}, DefaultParams())
	if c := findContext(contexts, "age"); c != nil {
		t.Errorf("age context must be skipped when an example has NULL age: %v", c.Filter)
	}
	if c := findContext(contexts, "tag"); c == nil {
		t.Error("shared tag context missing")
	}
}

func TestDisjunctionExtension(t *testing.T) {
	a := fig6DB(t)
	info := a.Entity("person")
	// Tom Cruise (Male) + Julia Roberts (Female): no shared gender value.
	params := DefaultParams()
	contexts := DiscoverContexts(info, []int{0, 3}, params)
	if c := findContext(contexts, "gender"); c != nil {
		t.Errorf("without disjunction there must be no gender context, got %v", c.Filter)
	}
	params.MaxDisjunction = 3
	contexts = DiscoverContexts(info, []int{0, 3}, params)
	c := findContext(contexts, "gender")
	if c == nil {
		t.Fatal("disjunctive gender context missing")
	}
	if len(c.Filter.Values) != 2 {
		t.Errorf("values=%v", c.Filter.Values)
	}
	if got := c.Filter.Selectivity(); got != 1.0 {
		t.Errorf("ψ(Male|Female)=%v want 1", got)
	}
	// Disjunction wider than the cap is not emitted.
	params.MaxDisjunction = 1
	contexts = DiscoverContexts(info, []int{0, 3}, params)
	if c := findContext(contexts, "gender"); c != nil {
		t.Errorf("cap=1 must suppress the disjunction, got %v", c.Filter)
	}
}

func TestEmptyExamples(t *testing.T) {
	a := fig6DB(t)
	if got := DiscoverContexts(a.Entity("person"), nil, DefaultParams()); got != nil {
		t.Errorf("no examples must give no contexts, got %v", got)
	}
}

// TestFilterRowsMatchSatisfiedBy cross-checks RowSet against
// SatisfiedBy for every discovered filter.
func TestFilterRowsMatchSatisfiedBy(t *testing.T) {
	a := actorsDB(t, 80, 40, 3)
	info := a.Entity("person")
	contexts := DiscoverContexts(info, []int{0, 1, 2}, DefaultParams())
	for _, c := range contexts {
		rows := c.Filter.RowSet().ToSorted()
		inSet := make(map[int]bool, len(rows))
		for _, r := range rows {
			inSet[r] = true
		}
		for row := 0; row < info.NumRows; row++ {
			if got := c.Filter.SatisfiedBy(info, row); got != inSet[row] {
				t.Errorf("%v: row %d SatisfiedBy=%v but RowSet membership=%v", c.Filter, row, got, inSet[row])
			}
		}
	}
}

// TestSelectivityMatchesRowFraction checks ψ(φ) = |rows(φ)| / |R| for all
// discovered filters (the definition in §4.2.1).
func TestSelectivityMatchesRowFraction(t *testing.T) {
	a := actorsDB(t, 90, 45, 4)
	info := a.Entity("person")
	contexts := DiscoverContexts(info, []int{0, 1}, DefaultParams())
	for _, c := range contexts {
		want := float64(len(c.Filter.RowSet().ToSorted())) / float64(info.NumRows)
		if got := c.Filter.Selectivity(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%v: ψ=%v want %v", c.Filter, got, want)
		}
	}
}

func TestIntersectRows(t *testing.T) {
	a := fig6DB(t)
	info := a.Entity("person")
	contexts := DiscoverContexts(info, []int{0, 1}, DefaultParams())
	all := IntersectRows(info, nil)
	if len(all) != 6 {
		t.Errorf("no filters must return all rows, got %d", len(all))
	}
	filters := []*Filter{contexts[0].Filter, contexts[1].Filter}
	rows := IntersectRows(info, filters)
	// Males aged 50-90: Tom Cruise, Clint Eastwood, Tom Hanks.
	if len(rows) != 3 {
		t.Errorf("rows=%v want 3 males in [50,90]", rows)
	}
	for _, r := range rows {
		for _, f := range filters {
			if !f.SatisfiedBy(info, r) {
				t.Errorf("row %d does not satisfy %v", r, f)
			}
		}
	}
}

// TestLemma31ConjunctionValidity: a conjunction of filters is valid iff
// every conjunct is valid (Lemma 3.1), verified via IntersectRows
// containing all examples exactly when each filter contains them.
func TestLemma31ConjunctionValidity(t *testing.T) {
	a := actorsDB(t, 70, 35, 5)
	info := a.Entity("person")
	examples := []int{0, 1}
	contexts := DiscoverContexts(info, examples, DefaultParams())
	var filters []*Filter
	for _, c := range contexts {
		filters = append(filters, c.Filter)
	}
	rows := IntersectRows(info, filters)
	inRows := make(map[int]bool, len(rows))
	for _, r := range rows {
		inRows[r] = true
	}
	for _, ex := range examples {
		if !inRows[ex] {
			t.Errorf("example row %d missing from conjunction of valid filters", ex)
		}
	}
}
