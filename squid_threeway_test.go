package squid

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/index"
	"squid/internal/metrics"
	"squid/internal/relation"
	"squid/internal/trace"
)

// randomIngest publishes a seeded random sequence of mixed entity/fact
// batches over the IMDb schema and returns the number of rows inserted.
// Facts land on generator rows, on rows of earlier publishes and on
// rows inserted earlier in their own batch.
//
// The sequence stays inside what incremental maintenance covers today:
// an insert updates the properties routed through the inserted fact as
// a first hop, so a fact table is only written while nothing reaches it
// as a second hop. Concretely, a new entity's dimension facts (genres,
// awards) follow its own row before anything links to it, each
// (person, movie) pair is cast once, and casts go to new movies until a
// company link closes them (company → movie → castinfo → role would go
// stale otherwise). Lifting that envelope is ROADMAP item 1.
func randomIngest(t *testing.T, sys *System, rng *rand.Rand, publishes int) int {
	t.Helper()
	db := sys.AlphaDB().DB()
	dim := func(rel string) Value { return IntVal(int64(rng.Intn(db.Relation(rel).NumRows()))) }
	persons := make([]int64, db.Relation("person").NumRows())
	for i := range persons {
		persons[i] = int64(i)
	}
	var open []int64 // new movies no company links to yet
	cast := map[[2]int64]bool{}
	certificates := []string{"G", "PG", "R"}
	nextID := int64(1_000_000)
	rows := 0
	for k := 0; k < publishes; k++ {
		var ops []InsertOp
		add := func(rel string, vals ...Value) { ops = append(ops, InsertOp{Rel: rel, Vals: vals}) }
		for n := 8 + rng.Intn(24); len(ops) < n; {
			switch op := rng.Intn(8); {
			case op == 0:
				nextID++
				gender := []string{"Male", "Female"}[rng.Intn(2)]
				add("person", IntVal(nextID), StringVal(fmt.Sprintf("Threeway Person %d", nextID)),
					StringVal(gender), IntVal(int64(1925+rng.Intn(90))), dim("country"))
				for i := rng.Intn(3); i > 0; i-- {
					add("persontoaward", IntVal(nextID), dim("award"))
				}
				persons = append(persons, nextID)
			case op == 1 || len(open) == 0:
				nextID++
				year := 1950 + rng.Intn(70)
				add("movie", IntVal(nextID), StringVal(fmt.Sprintf("Threeway Movie %d", nextID)),
					IntVal(int64(year)), StringVal(fmt.Sprintf("%ds", year/10*10)),
					StringVal(certificates[rng.Intn(len(certificates))]), dim("language"))
				for i := 1 + rng.Intn(3); i > 0; i-- {
					add("movietogenre", IntVal(nextID), dim("genre"))
				}
				open = append(open, nextID)
			case op == 2:
				i := rng.Intn(len(open))
				add("movietocompany", IntVal(open[i]), dim("company"))
				open = append(open[:i], open[i+1:]...)
			default:
				pair := [2]int64{persons[rng.Intn(len(persons))], open[rng.Intn(len(open))]}
				if !cast[pair] {
					cast[pair] = true
					add("castinfo", IntVal(pair[0]), IntVal(pair[1]), dim("role"))
				}
			}
		}
		if err := sys.InsertBatch(ops); err != nil {
			t.Fatalf("publish %d: %v", k, err)
		}
		rows += len(ops)
	}
	return rows
}

// compareAlphaDBs asserts two αDBs over the same rows answer every
// property question identically: selectivities, domain coverage and
// satisfying-row sets of every basic and derived property, and the
// inverted-index postings (sorted: a build groups them by relation, an
// insert appends them in arrival order) of every TEXT value.
func compareAlphaDBs(t *testing.T, label string, got, want *adb.AlphaDB, rng *rand.Rand) {
	t.Helper()
	postings := func(a *adb.AlphaDB, v string) []index.Posting {
		ps := slices.Clone(a.Snapshot().InvertedLookup(v))
		slices.SortFunc(ps, func(a, b index.Posting) int {
			return cmp.Or(strings.Compare(a.Relation, b.Relation), strings.Compare(a.Column, b.Column), cmp.Compare(a.Row, b.Row))
		})
		return ps
	}
	for _, name := range want.DB().RelationNames() {
		for _, col := range want.DB().Relation(name).Columns() {
			if col.Type != relation.String {
				continue
			}
			for _, v := range col.Dict().Values() {
				if g, w := postings(got, v), postings(want, v); !reflect.DeepEqual(g, w) {
					t.Errorf("%s: postings of %q are %v want %v", label, v, g, w)
				}
			}
		}
	}
	for name, w := range want.Snapshot().Entities {
		g := got.Entity(name)
		if g == nil || g.NumRows != w.NumRows || len(g.Basic) != len(w.Basic) || len(g.Derived) != len(w.Derived) {
			t.Fatalf("%s: entity %s shape diverged", label, name)
		}
		for i, wp := range w.Basic {
			gp := g.Basic[i]
			at := fmt.Sprintf("%s: %s.%s", label, name, wp.Attr)
			if gp.Attr != wp.Attr || gp.Kind != wp.Kind {
				t.Fatalf("%s: property order diverged (%s)", at, gp.Attr)
			}
			if wp.Kind == adb.Categorical {
				values := wp.DistinctValues()
				if !reflect.DeepEqual(gp.DistinctValues(), values) {
					t.Errorf("%s: domains diverged", at)
					continue
				}
				if gp.CategoricalDomainCoverage(1) != wp.CategoricalDomainCoverage(1) {
					t.Errorf("%s: domain coverage diverged", at)
				}
				for _, v := range values {
					if gp.CategoricalSelectivity(v) != wp.CategoricalSelectivity(v) {
						t.Errorf("%s: ψ(%s) = %v want %v", at, v, gp.CategoricalSelectivity(v), wp.CategoricalSelectivity(v))
					}
					pair := []string{v, values[rng.Intn(len(values))]}
					if !reflect.DeepEqual(gp.EntityRowSetWithAnyValue(pair, trace.Span{}, true).ToSorted(), wp.EntityRowSetWithAnyValue(pair, trace.Span{}, true).ToSorted()) {
						t.Errorf("%s: rows of %q diverged", at, pair)
					}
				}
				continue
			}
			gi, wi := gp.NumericIndex(), wp.NumericIndex()
			if gi.Len() != wi.Len() || gi.Min() != wi.Min() || gi.Max() != wi.Max() {
				t.Errorf("%s: numeric index len/min/max %d/%v/%v want %d/%v/%v", at,
					gi.Len(), gi.Min(), gi.Max(), wi.Len(), wi.Min(), wi.Max())
				continue
			}
			span := wi.Max() - wi.Min()
			for trial := 0; trial < 12; trial++ {
				// Full range first, then narrow (index path) and wide
				// (row-scan path) sub-ranges.
				lo, hi := wi.Min(), wi.Max()
				if trial > 0 {
					lo += float64(rng.Intn(int(span) + 1))
					hi = lo + float64(rng.Intn(int(span)+1))/float64(1+trial%3)
				}
				if gp.RangeSelectivity(lo, hi) != wp.RangeSelectivity(lo, hi) || gp.DomainCoverage(lo, hi) != wp.DomainCoverage(lo, hi) {
					t.Errorf("%s: ψ/coverage of [%v,%v] diverged", at, lo, hi)
				}
				if !reflect.DeepEqual(gp.EntityRowSetInRange(lo, hi, trace.Span{}, true).ToSorted(), wp.EntityRowSetInRange(lo, hi, trace.Span{}, true).ToSorted()) {
					t.Errorf("%s: rows of [%v,%v] diverged", at, lo, hi)
				}
			}
		}
		for i, wp := range w.Derived {
			gp := g.Derived[i]
			at := fmt.Sprintf("%s: %s.%s", label, name, wp.Attr)
			if gp.Attr != wp.Attr || !reflect.DeepEqual(gp.DistinctValues(), wp.DistinctValues()) {
				t.Errorf("%s: derived domains diverged", at)
				continue
			}
			for _, v := range wp.DistinctValues() {
				if gp.MaxStrength(v) != wp.MaxStrength(v) {
					t.Errorf("%s: max strength of %s = %d want %d", at, v, gp.MaxStrength(v), wp.MaxStrength(v))
					continue
				}
				for theta := 1; theta <= wp.MaxStrength(v); theta++ {
					if gp.Selectivity(v, theta) != wp.Selectivity(v, theta) {
						t.Errorf("%s: ψ(%s,%d) = %v want %v", at, v, theta, gp.Selectivity(v, theta), wp.Selectivity(v, theta))
					}
					if !reflect.DeepEqual(gp.EntityRowSetWithStrength(v, theta, trace.Span{}, true).ToSorted(), wp.EntityRowSetWithStrength(v, theta, trace.Span{}, true).ToSorted()) {
						t.Errorf("%s: rows of (%s,%d) diverged", at, v, theta)
					}
				}
			}
		}
	}
}

// checkStrengthHistograms pins the O(1) strength histogram of every
// derived property through its public answers: for every value,
// ψ(φ⟨Attr,v,θ⟩)·|R| must equal a brute-force count over the value's
// (entity, strength) pairs for every θ up to one past the largest
// strength, which must be the largest strength among the pairs.
func checkStrengthHistograms(t *testing.T, label string, a *adb.AlphaDB) {
	t.Helper()
	for name, info := range a.Snapshot().Entities {
		for _, p := range info.Derived {
			for _, v := range p.DistinctValues() {
				entries := p.ValueEntries(v)
				maxStrength := 0
				for _, e := range entries {
					maxStrength = max(maxStrength, e.Count)
				}
				if p.MaxStrength(v) != maxStrength {
					t.Errorf("%s: %s.%s: max strength of %s = %d, the pairs say %d", label, name, p.Attr, v, p.MaxStrength(v), maxStrength)
				}
				for theta := 1; theta <= maxStrength+1; theta++ {
					n := 0
					for _, e := range entries {
						if e.Count >= theta {
							n++
						}
					}
					if want := float64(n) / float64(p.NumEntities()); p.Selectivity(v, theta) != want {
						t.Errorf("%s: %s.%s: ψ(%s,%d) = %v, the pairs say %v", label, name, p.Attr, v, theta, p.Selectivity(v, theta), want)
					}
				}
			}
		}
	}
}

// TestRandomIngestThreeWay is the three-roads-to-one-αDB oracle: after a
// seeded random sequence of mixed insert batches, the incrementally
// maintained epochs, a cold Build of the final database and a Save/Load
// round trip must agree on every property statistic and row set, and
// must explain every benchmark intent byte-identically. The small arm
// stays inside one chunk of every vector and never folds an index tail;
// the large arm is sized past the copy-on-write units of internal/index
// (256-element chunks; a hash tail folds past max(64, base/8) keys):
// three chunks of person rows, derived pair lists of several chunks
// that take mid-list inserts (a split), and enough castinfo publishes
// to fold the derived relations' entity-id indexes more than twice.
func TestRandomIngestThreeWay(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		threeWay(t, datagen.IMDbConfig{Seed: 11, NumPersons: 300, NumMovies: 150, NumCompany: 10}, 12)
	})
	t.Run("past chunk and fold boundaries", func(t *testing.T) {
		threeWay(t, datagen.IMDbConfig{Seed: 11, NumPersons: 800, NumMovies: 400, NumCompany: 20}, 60)
	})
}

func threeWay(t *testing.T, cfg datagen.IMDbConfig, publishes int) {
	g := datagen.GenerateIMDb(cfg)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20190625))
	rows := randomIngest(t, sys, rng, publishes)
	if es := sys.AlphaDB().EpochStats(); rows < 200 || es.Publishes != uint64(publishes) {
		t.Fatalf("sequence too small: %d rows over %d publishes", rows, es.Publishes)
	}

	cold, err := Build(sys.AlphaDB().DB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	compareAlphaDBs(t, "incremental vs cold build", sys.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
	compareAlphaDBs(t, "round trip vs cold build", loaded.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
	checkStrengthHistograms(t, "incremental", sys.AlphaDB())
	checkStrengthHistograms(t, "cold build", cold.AlphaDB())
	checkStrengthHistograms(t, "round trip", loaded.AlphaDB())

	explain := func(s *System, examples []string) string {
		d, err := s.Discover(examples)
		if err != nil {
			return err.Error()
		}
		return d.Explain() + fmt.Sprint(d.Output)
	}
	intents := 0
	for _, b := range benchqueries.IMDbBenchmarks(g) {
		truth, err := benchqueries.GroundTruth(cold.AlphaDB().DB(), b)
		if err != nil {
			t.Fatal(err)
		}
		if len(truth) < 5 {
			continue
		}
		intents++
		examples := metrics.Sample(rng, truth, 5)
		want := explain(cold, examples)
		if got := explain(sys, examples); got != want {
			t.Errorf("%s: incremental epochs explain differently from a cold build:\n%s\n--- cold ---\n%s", b.ID, got, want)
		}
		if got := explain(loaded, examples); got != want {
			t.Errorf("%s: round trip explains differently from a cold build:\n%s\n--- cold ---\n%s", b.ID, got, want)
		}
	}
	if intents < 8 {
		t.Fatalf("only %d benchmark intents had enough ground truth", intents)
	}
}

// TestInsertFactPostsText: an insert into an attribute table posts the
// row's TEXT cells to the inverted index, as a cold build and a load
// index every relation's TEXT columns — the three roads resolve the new
// value to the same posting.
func TestInsertFactPostsText(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertFact("research", IntVal(100), StringVal("Quantum Origami")); err != nil {
		t.Fatal(err)
	}
	cold, err := Build(sys.AlphaDB().DB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []index.Posting{{Relation: "research", Column: "interest", Row: 8}}
	for label, s := range map[string]*System{"incremental": sys, "cold build": cold, "round trip": loaded} {
		if got := s.AlphaDB().Snapshot().InvertedLookup("quantum origami"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: postings of the inserted interest are %v want %v", label, got, want)
		}
	}
	compareAlphaDBs(t, "incremental vs cold build", sys.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
	compareAlphaDBs(t, "round trip vs cold build", loaded.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
}
