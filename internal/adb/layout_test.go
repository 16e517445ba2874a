package adb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"squid/internal/datagen"
	"squid/internal/relation"
	"squid/internal/trace"
)

// TestCategoricalLayoutMatchesScan holds every categorical property's
// flat layout to a scan of the relations it summarizes, on every road a
// statistic reaches memory by: Build, Save/Load, and a random ingest
// that gives existing entities new values in the middle of their lists,
// interns values past the posting tables (new movies and persons
// referenced by later facts), and runs long enough to fold both the code
// lists and the posting lists — then Save/Load of that state. The scan
// knows nothing of codes lists, posting lists, tails or folds: it walks
// the access path over relation rows.
func TestCategoricalLayoutMatchesScan(t *testing.T) {
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 11, NumPersons: 400, NumMovies: 150, NumCompany: 12})
	a, err := Build(g.DB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "build", a)
	loaded, err := roundTrip(t, a)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "build, save, load", loaded)

	valFolds, postFolds, pastTable := layoutIngest(t, a, rand.New(rand.NewSource(3)), 40)
	t.Logf("ingest: %d code-list folds, %d posting-list folds, %d values past the table", valFolds, postFolds, pastTable)
	if valFolds == 0 || postFolds == 0 || pastTable == 0 {
		t.Errorf("the ingest folded code lists %d times and posting lists %d times, and put %d values past the table: each must happen",
			valFolds, postFolds, pastTable)
	}
	checkLayout(t, "ingest", a)
	loaded, err = roundTrip(t, a)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "ingest, save, load", loaded)
}

// layoutIngest publishes batches of castinfo facts between existing and
// new persons and movies (never a (person, movie) pair twice: a repeated
// pair is ROADMAP item 1's open bug), new persons with their awards and
// new movies with their genres, and counts the publishes that folded a
// categorical layout — a fold is the only thing that changes a base —
// and the values a batch added past its property's posting table.
func layoutIngest(t *testing.T, a *AlphaDB, rng *rand.Rand, batches int) (valFolds, postFolds, pastTable int) {
	t.Helper()
	db := a.DB()
	dim := func(rel string) relation.Value { return relation.IntVal(int64(rng.Intn(db.Relation(rel).NumRows()))) }
	persons := make([]int64, db.Relation("person").NumRows())
	for i := range persons {
		persons[i] = int64(i)
	}
	movies := make([]int64, db.Relation("movie").NumRows())
	for i := range movies {
		movies[i] = int64(i)
	}
	cast := map[[2]int64]bool{}
	ci := db.Relation("castinfo")
	for r := 0; r < ci.NumRows(); r++ {
		cast[[2]int64{ci.Column("person_id").Int64(r), ci.Column("movie_id").Int64(r)}] = true
	}
	type base struct{ vals, posts int64 }
	bases := func() map[string]base {
		out := map[string]base{}
		for name, info := range a.Snapshot().Entities {
			for _, p := range info.Basic {
				if p.Kind == Categorical {
					vb, _ := p.valsByRow.ResidentBytes()
					pb, _ := p.catRows.ResidentBytes()
					out[name+"."+p.Attr] = base{vb, pb}
				}
			}
		}
		return out
	}
	tables := func() map[string]int {
		out := map[string]int{}
		for name, info := range a.Snapshot().Entities {
			for _, p := range info.Basic {
				out[name+"."+p.Attr] = p.catRows.Len()
			}
		}
		return out
	}
	nextID := int64(1_000_000)
	for k := 0; k < batches; k++ {
		var ops []InsertOp
		add := func(rel string, vals ...relation.Value) { ops = append(ops, InsertOp{Rel: rel, Vals: vals}) }
		for n := 24 + rng.Intn(24); len(ops) < n; {
			switch op := rng.Intn(10); {
			case op == 0:
				nextID++
				add("person", relation.IntVal(nextID), relation.StringVal(fmt.Sprintf("Layout Person %d", nextID)),
					relation.StringVal([]string{"Male", "Female"}[rng.Intn(2)]), relation.IntVal(int64(1925+rng.Intn(90))), dim("country"))
				for i := rng.Intn(3); i > 0; i-- {
					add("persontoaward", relation.IntVal(nextID), dim("award"))
				}
				persons = append(persons, nextID)
			case op == 1:
				nextID++
				year := 1950 + rng.Intn(70)
				add("movie", relation.IntVal(nextID), relation.StringVal(fmt.Sprintf("Layout Movie %d", nextID)),
					relation.IntVal(int64(year)), relation.StringVal(fmt.Sprintf("%ds", year/10*10)),
					relation.StringVal([]string{"G", "PG", "R"}[rng.Intn(3)]), dim("language"))
				add("movietogenre", relation.IntVal(nextID), dim("genre"))
				movies = append(movies, nextID)
			default:
				pair := [2]int64{persons[rng.Intn(len(persons))], movies[rng.Intn(len(movies))]}
				if !cast[pair] {
					cast[pair] = true
					add("castinfo", relation.IntVal(pair[0]), relation.IntVal(pair[1]), dim("role"))
				}
			}
		}
		before, width := bases(), tables()
		if err := a.InsertBatch(ops, trace.Span{}); err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		for key, b := range bases() {
			valFolds += boolInt(b.vals != before[key].vals)
			postFolds += boolInt(b.posts != before[key].posts)
		}
		for key, n := range tables() {
			pastTable += boolInt(n > width[key])
		}
	}
	return valFolds, postFolds, pastTable
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkLayout compares every categorical property of the current epoch
// with scanCodes: each row's codes in order with their repeats (the file
// stores both), and per value the satisfying rows as a set, ψ, the
// distinct-value count and the domain.
func checkLayout(t *testing.T, road string, a *AlphaDB) {
	t.Helper()
	ep := a.Snapshot()
	for _, name := range sortedKeys(ep.Entities) {
		info := ep.Entities[name]
		for _, p := range info.Basic {
			if p.Kind != Categorical {
				continue
			}
			at := fmt.Sprintf("%s: %s.%s", road, name, p.Attr)
			want := scanCodes(ep, info, p)
			if p.valsByRow.Len() != info.NumRows {
				t.Fatalf("%s: %d code lists for %d rows", at, p.valsByRow.Len(), info.NumRows)
			}
			rows := map[int32][]int{}
			for row, codes := range want {
				if have := p.ValueCodes(row); !slices.Equal(have, codes) || (have == nil) != (len(codes) == 0) {
					t.Fatalf("%s: ValueCodes(%d) = %v, the scan reads %v", at, row, have, codes)
				}
				for i, c := range codes {
					if !slices.Contains(codes[:i], c) {
						rows[c] = append(rows[c], row)
					}
				}
			}
			var domain []string
			for code := int32(0); int(code) <= p.dict.Len(); code++ {
				set := rows[code]
				if psi := float64(len(set)) / float64(info.NumRows); p.SelectivityOfCode(code) != psi {
					t.Fatalf("%s: SelectivityOfCode(%d) = %v, the scan counts %v", at, code, p.SelectivityOfCode(code), psi)
				}
				if int(code) == p.dict.Len() {
					break
				}
				if have := p.EntityRowsWithValue(p.dict.Value(code)); !slices.Equal(have, set) {
					t.Fatalf("%s: EntityRowsWithValue(%q) = %v, the scan finds %v", at, p.dict.Value(code), have, set)
				}
				if len(set) > 0 {
					domain = append(domain, p.dict.Value(code))
				}
			}
			sort.Strings(domain)
			if p.NumDistinct() != len(domain) || !slices.Equal(p.DistinctValues(), domain) {
				t.Fatalf("%s: %d distinct values %v, the scan finds %d: %v", at, p.NumDistinct(), p.DistinctValues(), len(domain), domain)
			}
		}
	}
}

// scanCodes walks a property's access path over the epoch's relations
// and returns each entity row's value codes in the order the source rows
// carry them, repeats included — except that an entity-association
// property lists an associated entity once however many facts link the
// pair, as the build does.
func scanCodes(ep *Epoch, info *EntityInfo, p *BasicProperty) [][]int32 {
	rowOf := func(rel *relation.Relation, key string) map[int64]int {
		m := map[int64]int{}
		c := rel.Column(key)
		for r := rel.NumRows() - 1; r >= 0; r-- {
			if !c.IsNull(r) {
				m[c.Int64(r)] = r // the first row with the key wins
			}
		}
		return m
	}
	out := make([][]int32, info.NumRows)
	ent := info.Rel()
	switch ap := p.Access; ap.Type {
	case Direct:
		c := ent.Column(ap.Column)
		for r := range out {
			if !c.IsNull(r) {
				out[r] = []int32{c.Code(r)}
			}
		}
	case FKDim:
		dim := ep.DB.Relation(ap.Dim)
		dims, fk, vc := rowOf(dim, ap.DimPK), ent.Column(ap.Column), dim.Column(ap.DimValueCol)
		for r := range out {
			if fk.IsNull(r) {
				continue
			}
			if d, ok := dims[fk.Int64(r)]; ok && !vc.IsNull(d) {
				out[r] = []int32{vc.Code(d)}
			}
		}
	case AttrTable:
		side := ep.DB.Relation(ap.Fact)
		ents, fk, vc := rowOf(ent, info.PK), side.Column(ap.FactEntityCol), side.Column(ap.Column)
		for sr := 0; sr < side.NumRows(); sr++ {
			if e, ok := ents[fk.Int64(sr)]; ok && !fk.IsNull(sr) && !vc.IsNull(sr) {
				out[e] = append(out[e], vc.Code(sr))
			}
		}
	case FactDim:
		fact, dim := ep.DB.Relation(ap.Fact), ep.DB.Relation(ap.Dim)
		ents, dims := rowOf(ent, info.PK), rowOf(dim, ap.DimPK)
		fk, dk, vc := fact.Column(ap.FactEntityCol), fact.Column(ap.FactDimCol), dim.Column(ap.DimValueCol)
		assoc := ep.DB.Kind(ap.Dim) == relation.KindEntity
		seen := map[[2]int]bool{}
		for fr := 0; fr < fact.NumRows(); fr++ {
			if fk.IsNull(fr) || dk.IsNull(fr) {
				continue
			}
			e, ok := ents[fk.Int64(fr)]
			d, dok := dims[dk.Int64(fr)]
			if !ok || !dok || vc.IsNull(d) || assoc && seen[[2]int{e, d}] {
				continue
			}
			seen[[2]int{e, d}] = true
			out[e] = append(out[e], vc.Code(d))
		}
	}
	return out
}
