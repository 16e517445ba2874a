package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"squid/internal/adb"
	"squid/internal/relation"
)

// checkIntegrity holds a generated database to the schema rule the αDB
// build checks (adb.Build refuses a database that breaks it), and then
// checks what the rule does not read: every foreign-key cell holds a key
// of the column it references, none NULL or dangling.
func checkIntegrity(t *testing.T, db *relation.Database) {
	t.Helper()
	if _, err := adb.Build(db, adb.DefaultConfig()); err != nil {
		t.Fatalf("schema rule: %v", err)
	}
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		for _, fk := range rel.Foreign {
			ref := db.Relation(fk.RefRelation).Column(fk.RefColumn)
			keys := make(map[int64]bool, ref.Len())
			for i := range ref.Len() {
				if !ref.IsNull(i) {
					keys[ref.Int64(i)] = true
				}
			}
			col := rel.Column(fk.Column)
			for i := range col.Len() {
				if col.IsNull(i) || !keys[col.Int64(i)] {
					t.Fatalf("%s.%s row %d: %v finds no %s.%s", name, fk.Column, i, col.Get(i), fk.RefRelation, fk.RefColumn)
				}
			}
		}
	}
}

// tinyIMDb returns a small config for fast tests.
func tinyIMDb() IMDbConfig {
	return IMDbConfig{Seed: 7, NumPersons: 600, NumMovies: 300, NumCompany: 20}
}

func TestIMDbSchemaShape(t *testing.T) {
	g := GenerateIMDb(tinyIMDb())
	if got := g.DB.NumRelations(); got != 15 {
		t.Errorf("relations=%d want 15 (paper: IMDb has 15 relations)", got)
	}
	checkIntegrity(t, g.DB)
	if len(g.DB.EntityRelations()) != 3 {
		t.Errorf("entities=%v", g.DB.EntityRelations())
	}
	// Cardinality ordering: persons > movies > companies; castinfo
	// largest fact table.
	p, m, c := g.DB.Relation("person").NumRows(), g.DB.Relation("movie").NumRows(), g.DB.Relation("company").NumRows()
	if !(p > m && m > c) {
		t.Errorf("cardinality ordering broken: %d %d %d", p, m, c)
	}
	ci := g.DB.Relation("castinfo").NumRows()
	if ci < p {
		t.Errorf("castinfo=%d should dominate persons=%d", ci, p)
	}
}

func TestIMDbDeterminism(t *testing.T) {
	a := GenerateIMDb(tinyIMDb())
	b := GenerateIMDb(tinyIMDb())
	if a.DB.TotalRows() != b.DB.TotalRows() {
		t.Fatal("generation not deterministic in size")
	}
	// Spot-check some cells.
	ra, rb := a.DB.Relation("castinfo"), b.DB.Relation("castinfo")
	for _, row := range []int{0, 100, ra.NumRows() - 1} {
		for _, col := range []string{"person_id", "movie_id"} {
			if !ra.Get(row, col).Equal(rb.Get(row, col)) {
				t.Fatalf("cell (%d,%s) differs", row, col)
			}
		}
	}
}

func TestIMDbPlantedBlockbuster(t *testing.T) {
	g := GenerateIMDb(tinyIMDb())
	ci := g.DB.Relation("castinfo")
	pcol, mcol := ci.Column("person_id"), ci.Column("movie_id")
	cast := map[int64]bool{}
	for i := 0; i < ci.NumRows(); i++ {
		if mcol.Int64(i) == g.BlockbusterID {
			cast[pcol.Int64(i)] = true
		}
	}
	if len(cast) < 100 {
		t.Errorf("blockbuster cast=%d want ≥100 (IQ1 needs a large cast)", len(cast))
	}
}

func TestIMDbPlantedTrilogy(t *testing.T) {
	g := GenerateIMDb(tinyIMDb())
	if len(g.TrilogyIDs) != 3 || len(g.TrilogyCast) != 20 {
		t.Fatalf("trilogy plant wrong: %d movies, %d shared cast", len(g.TrilogyIDs), len(g.TrilogyCast))
	}
	// Every shared-cast member appears in all three parts.
	ci := g.DB.Relation("castinfo")
	pcol, mcol := ci.Column("person_id"), ci.Column("movie_id")
	appear := map[int64]map[int64]bool{}
	for i := 0; i < ci.NumRows(); i++ {
		p, m := pcol.Int64(i), mcol.Int64(i)
		if appear[p] == nil {
			appear[p] = map[int64]bool{}
		}
		appear[p][m] = true
	}
	for _, p := range g.TrilogyCast {
		for _, m := range g.TrilogyIDs {
			if !appear[p][m] {
				t.Errorf("trilogy member %d missing from movie %d", p, m)
			}
		}
	}
}

func TestIMDbPlantedComedians(t *testing.T) {
	g := GenerateIMDb(tinyIMDb())
	if len(g.Comedians) == 0 {
		t.Fatal("no comedians planted")
	}
	// Comedians must have many comedy credits: verify via the genre of
	// their movies.
	genreOf := map[int64][]int64{}
	mg := g.DB.Relation("movietogenre")
	for i := 0; i < mg.NumRows(); i++ {
		m := mg.Column("movie_id").Int64(i)
		genreOf[m] = append(genreOf[m], mg.Column("genre_id").Int64(i))
	}
	ci := g.DB.Relation("castinfo")
	pcol, mcol := ci.Column("person_id"), ci.Column("movie_id")
	comedyCount := map[int64]map[int64]bool{}
	for i := 0; i < ci.NumRows(); i++ {
		p, m := pcol.Int64(i), mcol.Int64(i)
		for _, gid := range genreOf[m] {
			if gid == 0 { // Comedy is genre id 0
				if comedyCount[p] == nil {
					comedyCount[p] = map[int64]bool{}
				}
				comedyCount[p][m] = true
			}
		}
	}
	for _, c := range g.Comedians {
		if len(comedyCount[c]) < 10 {
			t.Errorf("comedian %d has only %d comedies", c, len(comedyCount[c]))
		}
	}
}

func TestIMDbAmbiguityPlants(t *testing.T) {
	g := GenerateIMDb(tinyIMDb())
	if len(g.AmbiguousIDs) != 4 {
		t.Fatalf("ambiguous movies=%d", len(g.AmbiguousIDs))
	}
	m := g.DB.Relation("movie")
	count := 0
	tcol := m.Column("title")
	for i := 0; i < m.NumRows(); i++ {
		if tcol.Str(i) == g.AmbiguousTitle {
			count++
		}
	}
	if count != 4 {
		t.Errorf("title %q appears %d times want 4", g.AmbiguousTitle, count)
	}
	if len(g.AmbiguousNames) == 0 {
		t.Error("no ambiguous person names planted")
	}
	// Each ambiguous name appears at least twice in person.name.
	p := g.DB.Relation("person")
	ncol := p.Column("name")
	for _, name := range g.AmbiguousNames {
		n := 0
		for i := 0; i < p.NumRows(); i++ {
			if ncol.Str(i) == name {
				n++
			}
		}
		if n < 2 {
			t.Errorf("ambiguous name %q appears %d times", name, n)
		}
	}
}

func TestIMDbVariants(t *testing.T) {
	g := GenerateIMDb(tinyIMDb())
	bs := BSIMDb(g)
	bd := BDIMDb(g)
	checkIntegrity(t, bs)
	checkIntegrity(t, bd)
	// Entities double.
	if got, want := bs.Relation("person").NumRows(), 2*g.DB.Relation("person").NumRows(); got != want {
		t.Errorf("bs persons=%d want %d", got, want)
	}
	// castinfo: bs = 2×, bd = 4× the original.
	orig := g.DB.Relation("castinfo").NumRows()
	if got := bs.Relation("castinfo").NumRows(); got != 2*orig {
		t.Errorf("bs castinfo=%d want %d", got, 2*orig)
	}
	if got := bd.Relation("castinfo").NumRows(); got != 4*orig {
		t.Errorf("bd castinfo=%d want %d", got, 4*orig)
	}
	// bd is strictly larger than bs (denser associations).
	if bd.TotalRows() <= bs.TotalRows() {
		t.Error("bd must be denser than bs")
	}
}

func TestDBLPSchemaShape(t *testing.T) {
	g := GenerateDBLP(DBLPConfig{Seed: 3, NumAuthor: 400, NumPubs: 800})
	if got := g.DB.NumRelations(); got != 14 {
		t.Errorf("relations=%d want 14 (paper: DBLP has 14 relations)", got)
	}
	checkIntegrity(t, g.DB)
	if len(g.Prolific) != 30 {
		t.Errorf("prolific=%d want 30", len(g.Prolific))
	}
	if len(g.Trio) != 3 || len(g.TrioPubs) != 15 {
		t.Errorf("trio plant wrong")
	}
	if len(g.DualAffil) != 20 {
		t.Errorf("dual-affiliation plant wrong: %d", len(g.DualAffil))
	}
}

func TestDBLPPlantedProlific(t *testing.T) {
	g := GenerateDBLP(DBLPConfig{Seed: 3, NumAuthor: 400, NumPubs: 800})
	// Prolific authors should clearly out-publish the median author.
	for _, a := range g.Prolific {
		if g.PubCount[a] < 20 {
			t.Errorf("prolific author %d has only %d pubs", a, g.PubCount[a])
		}
	}
}

func TestAdultShape(t *testing.T) {
	g := GenerateAdult(AdultConfig{Seed: 5, NumRows: 500, ScaleFactor: 1})
	if g.DB.NumRelations() != 1 {
		t.Errorf("relations=%d want 1", g.DB.NumRelations())
	}
	r := g.DB.Relation("adult")
	if r.NumRows() != 500 {
		t.Errorf("rows=%d", r.NumRows())
	}
	checkIntegrity(t, g.DB)
	if r.NumCols() != 16 {
		t.Errorf("cols=%d want 16", r.NumCols())
	}
}

func TestAdultScaleFactor(t *testing.T) {
	base := GenerateAdult(AdultConfig{Seed: 5, NumRows: 300, ScaleFactor: 1})
	x3 := GenerateAdult(AdultConfig{Seed: 5, NumRows: 300, ScaleFactor: 3})
	if got, want := x3.DB.Relation("adult").NumRows(), 3*base.DB.Relation("adult").NumRows(); got != want {
		t.Errorf("scaled rows=%d want %d", got, want)
	}
	checkIntegrity(t, x3.DB)
}

func TestZipfWeights(t *testing.T) {
	w := zipfWeights(10, 1.0)
	sum := 0.0
	for i, x := range w {
		sum += x
		if i > 0 && x > w[i-1] {
			t.Error("weights must be non-increasing")
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum=%v", sum)
	}
}

func TestNameGenerators(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		n := personName(i)
		if seen[n] {
			t.Fatalf("duplicate person name %q at %d", n, i)
		}
		seen[n] = true
	}
	seen = map[string]bool{}
	for i := 0; i < 2000; i++ {
		n := movieTitle(i)
		if seen[n] {
			t.Fatalf("duplicate movie title %q at %d", n, i)
		}
		seen[n] = true
	}
	if decadeOf(1997) != "1990s" || decadeOf(2005) != "2000s" {
		t.Error("decade bucketing wrong")
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	got := sampleDistinct(rng, 10, 5)
	if len(got) != 5 {
		t.Fatalf("len=%d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", got)
		}
		seen[v] = true
	}
	// k ≥ n returns everything.
	if got := sampleDistinct(rng, 3, 10); len(got) != 3 {
		t.Errorf("overflow sample=%v", got)
	}
}

func TestVariantsPreserveDimensions(t *testing.T) {
	g := GenerateIMDb(tinyIMDb())
	bs := BSIMDb(g)
	for _, dim := range []string{"genre", "country", "language", "role", "keyword", "award"} {
		if bs.Relation(dim).NumRows() != g.DB.Relation(dim).NumRows() {
			t.Errorf("dimension %s must be shared as-is", dim)
		}
		if bs.Kind(dim) != relation.KindProperty {
			t.Errorf("dimension %s lost its property annotation", dim)
		}
	}
}

// TestIMDbDeterministic generates one configuration of each generator
// twice and requires the same rows in the same order in every relation:
// every set drawn into a map (IMDb's genres, countries and keywords,
// DBLP's keywords, the retail products' tags) is emitted sorted, never in map order, so two
// processes (and two snapshots of their data) agree byte for byte.
func TestIMDbDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		generate func() *relation.Database
	}{
		{"imdb", func() *relation.Database { return GenerateIMDb(tinyIMDb()).DB }},
		{"dblp", func() *relation.Database {
			return GenerateDBLP(DBLPConfig{Seed: 3, NumAuthor: 800, NumPubs: 1600}).DB
		}},
		{"adult", func() *relation.Database {
			return GenerateAdult(AdultConfig{Seed: 5, NumRows: 1500, ScaleFactor: 1}).DB
		}},
		{"retail", func() *relation.Database { return GenerateGen(tinyGen()).DB }},
	} {
		t.Run(tc.name, func(t *testing.T) { requireSameRows(t, tc.generate(), tc.generate()) })
	}
}

// requireSameRows fails t unless a and b hold the same rows in the same
// order in every relation.
func requireSameRows(t *testing.T, a, b *relation.Database) {
	t.Helper()
	for _, name := range a.RelationNames() {
		ra, rb := a.Relation(name), b.Relation(name)
		if ra.NumRows() != rb.NumRows() {
			t.Fatalf("%s: %d rows, then %d", name, ra.NumRows(), rb.NumRows())
		}
		for i := 0; i < ra.NumRows(); i++ {
			if !reflect.DeepEqual(ra.Row(i), rb.Row(i)) {
				t.Fatalf("%s row %d: %v, then %v", name, i, ra.Row(i), rb.Row(i))
			}
		}
	}
}

// linearPick is the reference draw: the running sum of the weights,
// scanned for the first that exceeds r, the last index past them all.
func linearPick(weights []float64, r float64) int {
	acc := 0.0
	for i, w := range weights {
		acc += w
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}

// TestWeightedPickMatchesLinearScan: over random weight vectors — zero
// weights, runs of equal ones, sums a rounding short of 1 — the binary
// search over the accumulated weights picks the index the linear scan
// picks, for random draws and for draws on and beside every cumulative
// value.
func TestWeightedPickMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		w := make([]float64, 1+rng.Intn(40))
		for i := range w {
			switch rng.Intn(4) {
			case 0: // zero
			case 1:
				if i > 0 {
					w[i] = w[i-1] // a repeat
				}
			default:
				w[i] = rng.Float64()
			}
		}
		if rng.Intn(2) == 0 {
			renormalize(w)
		} else {
			copy(w, zipfWeights(len(w), rng.Float64()*2))
		}
		c := cumulate(w)
		draws := []float64{0, math.Nextafter(1, 0)}
		for _, acc := range c {
			draws = append(draws, acc, math.Nextafter(acc, 0), math.Nextafter(acc, 2))
		}
		for i := 0; i < 50; i++ {
			draws = append(draws, rng.Float64())
		}
		for _, r := range draws {
			if got, want := search(c, r), linearPick(w, r); got != want {
				t.Fatalf("weights %v, draw %v: picked %d, the linear scan %d", w, r, got, want)
			}
		}
	}
	if got := search(cumulate(nil), 0.5); got != linearPick(nil, 0.5) {
		t.Errorf("no weights: picked %d, the linear scan %d", got, linearPick(nil, 0.5))
	}
}

// TestGeneratorsMatchLinearPick: every generator, at two seeds, draws
// the same database with the binary search as with every draw made by
// a linear scan of the same accumulated weights.
func TestGeneratorsMatchLinearPick(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		for _, tc := range []struct {
			name     string
			generate func() *relation.Database
		}{
			{"imdb", func() *relation.Database {
				return GenerateIMDb(IMDbConfig{Seed: seed, NumPersons: 600, NumMovies: 300, NumCompany: 20}).DB
			}},
			{"dblp", func() *relation.Database {
				return GenerateDBLP(DBLPConfig{Seed: seed, NumAuthor: 800, NumPubs: 1600}).DB
			}},
			{"adult", func() *relation.Database {
				return GenerateAdult(AdultConfig{Seed: seed, NumRows: 1500, ScaleFactor: 1}).DB
			}},
			{"retail", func() *relation.Database {
				cfg := tinyGen()
				cfg.Seed = seed
				return GenerateGen(cfg).DB
			}},
		} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				searched := tc.generate()
				defer func(s func(cdf, float64) int) { search = s }(search)
				search = func(c cdf, r float64) int {
					for i, acc := range c {
						if r < acc {
							return i
						}
					}
					return len(c) - 1
				}
				requireSameRows(t, searched, tc.generate())
			})
		}
	}
}
