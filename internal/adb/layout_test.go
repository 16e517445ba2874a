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

// TestCategoricalLayoutMatchesScan holds every categorical property to
// a scan of the relations it summarizes, on every road a statistic
// reaches memory by: Build, Save/Load, every publish of a random ingest
// that gives existing entities new values, interns values past the
// posting tables (new movies and persons referenced by later facts),
// links entities a batch appended only in the next batch (so the
// properties the first batch left alone answer through the path of an
// earlier epoch), casts a person in two movies of one title, and runs
// long enough to fold the posting lists — then Save/Load of that state.
// The scan knows nothing of paths, posting lists, tails or folds: it
// walks the access path over relation rows.
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

	postFolds, pastTable := layoutIngest(t, a, rand.New(rand.NewSource(3)), 40)
	t.Logf("ingest: %d posting-list folds, %d values past the table", postFolds, pastTable)
	if postFolds == 0 || pastTable == 0 {
		t.Errorf("the ingest folded posting lists %d times and put %d values past the table: each must happen", postFolds, pastTable)
	}
	twins := 0
	person := a.Entity("person")
	for row := range person.NumRows {
		codes := person.BasicByAttr("movie").AppendValueCodes(nil, row)
		twins += boolInt(len(slices.Compact(slices.Sorted(slices.Values(codes)))) < len(codes))
	}
	if twins == 0 {
		t.Error("no person holds one movie title twice")
	}
	loaded, err = roundTrip(t, a)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "ingest, save, load", loaded)
}

// layoutIngest publishes batches of castinfo facts between existing and
// new persons and movies (never a (person, movie) pair twice: a repeated
// pair is ROADMAP item 1's open bug), new persons with their awards and
// new movies with their genres, and every fifth batch new persons and
// movies alone — one movie named after an existing one — which the next
// batch casts and gives genres and companies, the original movie of the
// twin included. It checks the layout after every publish, and counts
// the publishes that folded a posting list — a fold is the only thing
// that changes a base — and the values a batch added past its
// property's posting table.
func layoutIngest(t *testing.T, a *AlphaDB, rng *rand.Rand, batches int) (postFolds, pastTable int) {
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
	bases := func() map[string]int64 {
		out := map[string]int64{}
		for name, info := range a.Snapshot().Entities {
			for _, p := range info.Basic {
				if p.Kind == Categorical {
					out[name+"."+p.Attr], _ = p.catRows.ResidentBytes()
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
	var late []InsertOp // the links of the entities the last batch appended
	for k := 0; k < batches; k++ {
		var ops []InsertOp
		add := func(rel string, vals ...relation.Value) { ops = append(ops, InsertOp{Rel: rel, Vals: vals}) }
		castRow := func(p, m int64) {
			if !cast[[2]int64{p, m}] {
				cast[[2]int64{p, m}] = true
				add("castinfo", relation.IntVal(p), relation.IntVal(m), dim("role"))
			}
		}
		newPerson := func() int64 {
			nextID++
			add("person", relation.IntVal(nextID), relation.StringVal(fmt.Sprintf("Layout Person %d", nextID)),
				relation.StringVal([]string{"Male", "Female"}[rng.Intn(2)]), relation.IntVal(int64(1925+rng.Intn(90))), dim("country"))
			persons = append(persons, nextID)
			return nextID
		}
		newMovie := func(title string) int64 {
			nextID++
			year := 1950 + rng.Intn(70)
			add("movie", relation.IntVal(nextID), relation.StringVal(title),
				relation.IntVal(int64(year)), relation.StringVal(fmt.Sprintf("%ds", year/10*10)),
				relation.StringVal([]string{"G", "PG", "R"}[rng.Intn(3)]), dim("language"))
			movies = append(movies, nextID)
			return nextID
		}
		ops, late = late, nil
		if k%5 == 2 {
			// Appended now, linked in the next batch.
			p, m := newPerson(), newMovie(fmt.Sprintf("Layout Movie %d", nextID+1))
			base := db.Relation("movie") // the generator's movies, whose ids are their rows
			orig := int64(rng.Intn(base.NumRows()))
			twin := newMovie(base.Column("title").Str(int(orig)))
			late = []InsertOp{
				{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(p), relation.IntVal(m), dim("role")}},
				{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(p), relation.IntVal(twin), dim("role")}},
				{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(p), relation.IntVal(orig), dim("role")}},
				{Rel: "movietogenre", Vals: []relation.Value{relation.IntVal(m), dim("genre")}},
				{Rel: "movietocompany", Vals: []relation.Value{relation.IntVal(twin), dim("company")}},
			}
			for _, op := range late[:3] {
				cast[[2]int64{op.Vals[0].Int(), op.Vals[1].Int()}] = true
			}
		} else {
			for n := len(ops) + 24 + rng.Intn(24); len(ops) < n; {
				switch op := rng.Intn(10); {
				case op == 0:
					id := newPerson()
					for i := rng.Intn(3); i > 0; i-- {
						add("persontoaward", relation.IntVal(id), dim("award"))
					}
				case op == 1:
					id := newMovie(fmt.Sprintf("Layout Movie %d", nextID+1))
					add("movietogenre", relation.IntVal(id), dim("genre"))
				default:
					castRow(persons[rng.Intn(len(persons))], movies[rng.Intn(len(movies))])
				}
			}
		}
		before, width := bases(), tables()
		if err := a.InsertBatch(ops, trace.Span{}); err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		checkLayout(t, fmt.Sprintf("ingest batch %d", k), a)
		for key, b := range bases() {
			postFolds += boolInt(b != before[key])
		}
		for key, n := range tables() {
			pastTable += boolInt(n > width[key])
		}
	}
	return postFolds, pastTable
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkLayout compares every categorical property of the current epoch
// with scanCodes and with the build's fold of its pairs over the epoch's
// relations: each row's codes in order with their repeats, which the
// path walks without an allocation, and per value the satisfying rows
// as a set, ψ, the distinct-value count and the domain.
func checkLayout(t *testing.T, road string, a *AlphaDB) {
	t.Helper()
	ep := a.Snapshot()
	var scratch []int32
	for _, name := range sortedKeys(ep.Entities) {
		info := ep.Entities[name]
		for _, p := range info.Basic {
			if p.Kind != Categorical {
				continue
			}
			at := fmt.Sprintf("%s: %s.%s", road, name, p.Attr)
			want := scanCodes(ep, info, p)
			fold := make([][]int32, info.NumRows)
			r := p.pairs(ep)
			for sr := range r.src.NumRows() {
				if row, code, ok := r.pair(sr); ok {
					fold[row] = append(fold[row], code)
				}
			}
			rows := map[int32][]int{}
			for row, codes := range want {
				scratch = p.AppendValueCodes(scratch[:0], row)
				if !slices.Equal(scratch, codes) || !slices.Equal(fold[row], codes) {
					t.Fatalf("%s: row %d: the walk reads %v, the fold %v, the scan %v", at, row, scratch, fold[row], codes)
				}
				for i, c := range codes {
					if !slices.Contains(codes[:i], c) {
						rows[c] = append(rows[c], row)
					}
				}
			}
			walkAll := func() {
				for row := range info.NumRows {
					scratch = p.AppendValueCodes(scratch[:0], row)
				}
			}
			if allocs := testing.AllocsPerRun(1, walkAll); allocs != 0 && !raceDetectorEnabled {
				t.Fatalf("%s: walking every row allocates %v times", at, allocs)
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
				if have := p.EntityRowSetWithAnyCode([]int32{code}, trace.Span{}, false).ToSorted(); !slices.Equal(have, set) {
					t.Fatalf("%s: the row set of %q = %v, the scan finds %v", at, p.dict.Value(code), have, set)
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
		dims, fk, vc := firstRows(dim, ap.DimPK), ent.Column(ap.Column), dim.Column(ap.DimValueCol)
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
		ents, fk, vc := firstRows(ent, info.PK), side.Column(ap.FactEntityCol), side.Column(ap.Column)
		for sr := 0; sr < side.NumRows(); sr++ {
			if e, ok := ents[fk.Int64(sr)]; ok && !fk.IsNull(sr) && !vc.IsNull(sr) {
				out[e] = append(out[e], vc.Code(sr))
			}
		}
	case FactDim:
		fact, dim := ep.DB.Relation(ap.Fact), ep.DB.Relation(ap.Dim)
		ents, dims := firstRows(ent, info.PK), firstRows(dim, ap.DimPK)
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

// firstRows maps each key of rel's column key to the first row holding
// it, as a primary-key index resolves a repeated key.
func firstRows(rel *relation.Relation, key string) map[int64]int {
	m := map[int64]int{}
	c := rel.Column(key)
	for r := rel.NumRows() - 1; r >= 0; r-- {
		if !c.IsNull(r) {
			m[c.Int64(r)] = r // the first row with the key wins
		}
	}
	return m
}

// TestResidentBytesCountsNumericOrder: on an entity whose only property
// is numeric, BasicStats is the numeric order and nothing else — before
// and after an insert that splits one of its chunks.
func TestResidentBytesCountsNumericOrder(t *testing.T) {
	db := relation.NewDatabase("readings")
	rel := relation.New("reading", relation.Col("id", relation.Int), relation.Col("value", relation.Float)).SetPrimaryKey("id")
	for i := range 600 {
		rel.MustAppend(relation.IntVal(int64(i)), relation.FloatVal(float64(i%97)))
	}
	db.AddRelation(rel)
	db.MarkEntity("reading")
	a, err := Build(db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for step := range 2 {
		ep := a.Snapshot()
		basic := ep.Entity("reading").Basic
		if len(basic) != 1 || basic[0].Kind != Numeric {
			t.Fatalf("step %d: want one numeric property, got %v", step, basic)
		}
		if got, want := ep.ResidentBytes().BasicStats, basic[0].order.ByteSize(); got != want || want == 0 {
			t.Errorf("step %d: BasicStats = %d, the numeric order holds %d", step, got, want)
		}
		if err := a.InsertBatch([]InsertOp{{Rel: "reading", Vals: []relation.Value{relation.IntVal(int64(1000 + step)), relation.FloatVal(40)}}}, trace.Span{}); err != nil {
			t.Fatal(err)
		}
	}
}
