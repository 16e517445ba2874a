package adb

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"squid/internal/datagen"
	"squid/internal/relation"
)

// TestMaterializedDerivedMatchesReference holds every derived relation
// of a cold Build — the view the engine reads over the property's pair
// lists — to a reference materialization in its plainest form: a map of
// value → strength per entity, the values of each entity in
// sort.Strings order; the comparison is row by row. Every entity's walk
// (AppendCounts) must give the reference's strengths too. The generated
// schemas carry every shape the tabulation has a case for, both value
// layouts among them, and the test fails if one of them stops
// occurring. Every value must answer in the other layout as in its own
// (checkRelayout).
func TestMaterializedDerivedMatchesReference(t *testing.T) {
	var seen shapes
	for seed := int64(1); seed <= 8; seed++ {
		a, err := Build(derivedOracleDB(rand.New(rand.NewSource(seed))), DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkDerivedReference(t, a, &seen)
	}
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 5, NumPersons: 300, NumMovies: 120, NumCompany: 10})
	a, err := Build(g.DB, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkDerivedReference(t, a, &seen)
	for name, ok := range map[string]bool{
		"a fact row with a NULL key":             seen.nullKey,
		"an (entity, via) pair linked twice":     seen.repeatedPair,
		"a degree property":                      seen.degree,
		"a second-hop (FactDim) property":        seen.factDim,
		"a self-edge":                            seen.selfEdge,
		"an entity with no association":          seen.unassociated,
		"an entity with two values to order":     seen.multiValued,
		"a value dictionary out of string order": seen.unsortedDict,
		"a value laid out as a dense column":     seen.dense,
		"a value laid out as a pair list":        seen.list,
	} {
		if !ok {
			t.Errorf("no fixture has %s", name)
		}
	}
}

// shapes records which cases of the tabulation the fixtures reached.
type shapes struct {
	nullKey, repeatedPair, degree, factDim, selfEdge, unassociated, multiValued, unsortedDict bool
	dense, list                                                                               bool
}

type derivedRow struct {
	id    int64
	value string
	count int64
}

func checkDerivedReference(t *testing.T, a *AlphaDB, seen *shapes) {
	t.Helper()
	ep := a.Snapshot()
	for _, name := range ep.DB.RelationNames() {
		fact := ep.DB.Relation(name)
		for _, fk := range fact.Foreign {
			col := fact.Column(fk.Column)
			for r := range fact.NumRows() {
				seen.nullKey = seen.nullKey || col.IsNull(r)
			}
		}
	}
	for _, entity := range ep.DB.EntityRelations() {
		info := ep.Entity(entity)
		for _, p := range info.Derived {
			want := referenceDerived(ep, info, p, seen)
			view := ep.CombinedDB().View(p.RelName).Rows(nil)
			ecol, vcol, ccol := view.Column("entity_id"), view.Column("value"), view.Column("count")
			if view.NumRows() != len(want) {
				t.Errorf("%s: %d rows, the reference has %d", p.RelName, view.NumRows(), len(want))
				continue
			}
			for r, w := range want {
				if ecol.IsNull(r) || vcol.IsNull(r) || ccol.IsNull(r) {
					t.Fatalf("%s row %d: NULL cell", p.RelName, r)
				}
				if got := (derivedRow{ecol.Int64(r), vcol.Str(r), ccol.Int64(r)}); got != w {
					t.Fatalf("%s row %d: %+v, the reference has %+v", p.RelName, r, got, w)
				}
			}
			var walked []derivedRow
			for row := range info.NumRows {
				counts := countsAt(p, row)
				values := slices.Sorted(maps.Keys(counts))
				for _, v := range values {
					walked = append(walked, derivedRow{info.IDByRow(row), v, int64(counts[v])})
				}
			}
			if !slices.Equal(walked, want) {
				t.Errorf("%s: the walks give %d strengths, the reference %d, or other ones", p.RelName, len(walked), len(want))
			}
			seen.degree = seen.degree || p.Target.Type == Degree
			seen.factDim = seen.factDim || p.Target.Type == FactDim && len(want) > 0
			seen.selfEdge = seen.selfEdge || p.Via == p.Entity && len(want) > 0
			seen.unsortedDict = seen.unsortedDict || !sort.StringsAreSorted(p.Dict().Values())
			for _, cs := range p.codes.All() {
				seen.dense = seen.dense || cs.dense && cs.pairs() > 0
				seen.list = seen.list || !cs.dense && cs.pairs() > 0
			}
			checkRelayout(t, info, p)
		}
	}
}

// countsOf reads the strengths of the entity with key id through its
// walk (AppendCounts), by value; nil when it has none.
func countsOf(p *DerivedProperty, id int64) map[string]int {
	row, ok := p.walk.pk.First(id)
	if !ok {
		return nil
	}
	return countsAt(p, row)
}

// countsAt is countsOf for entity row row: nil for a later row of a
// repeated key, which no fact row links.
func countsAt(p *DerivedProperty, row int) map[string]int {
	ccs, _ := p.AppendCounts(nil, nil, row)
	if len(ccs) == 0 {
		return nil
	}
	out := make(map[string]int, len(ccs))
	for _, cc := range ccs {
		out[p.DecodeValue(cc.Code)] = cc.Count
	}
	return out
}

// referenceDerived tabulates derived property p the plain way: the
// distinct via rows of each entity, a map from value to strength over
// their contributions, and the entity's values in sort.Strings order.
func referenceDerived(ep *Epoch, info *EntityInfo, p *DerivedProperty, seen *shapes) (rows []derivedRow) {
	d := p.reader(ep)
	fact := ep.DB.Relation(p.Fact1)
	vias := make([]map[int]bool, info.NumRows)
	for fr := range fact.NumRows() {
		eRow, vRow, ok := d.link(fr)
		if !ok {
			continue
		}
		if vias[eRow] == nil {
			vias[eRow] = map[int]bool{}
		}
		seen.repeatedPair = seen.repeatedPair || vias[eRow][vRow]
		vias[eRow][vRow] = true
	}
	for eRow, rowsOf := range vias {
		strength := map[string]int64{}
		for vRow := range rowsOf {
			for _, code := range d.add(vRow, nil) {
				strength[p.DecodeValue(code)]++
			}
		}
		values := make([]string, 0, len(strength))
		for v := range strength {
			values = append(values, v)
		}
		sort.Strings(values)
		seen.unassociated = seen.unassociated || len(values) == 0
		seen.multiValued = seen.multiValued || len(values) > 1
		for _, v := range values {
			rows = append(rows, derivedRow{info.IDByRow(eRow), v, strength[v]})
		}
	}
	return rows
}

// derivedOracleDB generates a small schema with every shape a derived
// property is tabulated over: persons and movies (entities, sparse and
// shuffled keys), a country and a genre dimension, castinfo between
// persons and movies with NULL and dangling keys and repeated pairs,
// movietogenre as the second hop, sequelof as a self-edge, and persons
// and movies no fact names. Values are drawn from a pool whose first
// appearance is not its string order, so code order, rank order and
// first-emission order all differ.
func derivedOracleDB(rng *rand.Rand) *relation.Database {
	pool := []string{"zulu", "Alpha", "alpha", "mike", "Mike", "b", "ab", "a", "échelle", "Zulu", "kilo", "delta"}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pick := func(n int) relation.Value { return relation.StringVal(pool[rng.Intn(n)]) }
	db := relation.NewDatabase("derived_oracle")

	dim := func(name string, n int) {
		rel := relation.New(name, relation.Col("id", relation.Int), relation.Col("name", relation.String)).SetPrimaryKey("id")
		for i := range n {
			rel.MustAppend(relation.IntVal(int64(100+i)), relation.StringVal(pool[(i*5+len(name))%len(pool)]))
		}
		db.AddRelation(rel)
		db.MarkProperty(name)
	}
	dim("country", 5+rng.Intn(5))
	dim("genre", 3+rng.Intn(8))
	countries, genres := db.Relation("country").NumRows(), db.Relation("genre").NumRows()
	// maybe returns a NULL one time in ten.
	maybe := func(v relation.Value) relation.Value {
		if rng.Intn(10) == 0 {
			return relation.Null
		}
		return v
	}

	nPersons, nMovies := 60+rng.Intn(60), 50+rng.Intn(30)
	person := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("gender", relation.String),
		relation.Col("country_id", relation.Int),
	).SetPrimaryKey("id").AddForeignKey("country_id", "country", "id")
	personID := func(i int) int64 { return int64(1000 + 7*i) }
	for i := range nPersons {
		person.MustAppend(relation.IntVal(personID(i)), relation.StringVal("person "+string(rune('A'+i%26))+string(rune('a'+i/26))),
			maybe(pick(3)), maybe(relation.IntVal(int64(100+rng.Intn(countries)))))
	}
	db.AddRelation(person)
	db.MarkEntity("person")

	movie := relation.New("movie",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
		relation.Col("kind", relation.String),
		relation.Col("country_id", relation.Int),
	).SetPrimaryKey("id").AddForeignKey("country_id", "country", "id")
	movieIDs := rng.Perm(nMovies)
	for i := range nMovies {
		movie.MustAppend(relation.IntVal(int64(movieIDs[i])), relation.StringVal("movie "+string(rune('A'+i%26))+string(rune('a'+i/26))),
			maybe(pick(6)), maybe(relation.IntVal(int64(100+rng.Intn(countries)))))
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")

	// fact fills a two-key fact: keys drawn from the first three quarters
	// of each side (the rest is never named), a NULL or dangling key
	// now and then, and a quarter of the rows repeating an earlier pair.
	fact := func(name, aCol, aRel, bCol, bRel string, aKey, bKey func(int) int64, na, nb, rows int) {
		rel := relation.New(name, relation.Col(aCol, relation.Int), relation.Col(bCol, relation.Int)).
			AddForeignKey(aCol, aRel, "id").AddForeignKey(bCol, bRel, "id")
		for r := range rows {
			if r > 0 && rng.Intn(4) == 0 {
				prev := rng.Intn(r)
				rel.MustAppend(rel.Get(prev, aCol), rel.Get(prev, bCol))
				continue
			}
			av, bv := relation.IntVal(aKey(rng.Intn(na*3/4))), relation.IntVal(bKey(rng.Intn(nb*3/4)))
			switch rng.Intn(20) {
			case 0:
				av = relation.Null
			case 1:
				bv = relation.Null
			case 2:
				av = relation.IntVal(-1)
			}
			rel.MustAppend(av, bv)
		}
		db.AddRelation(rel)
	}
	movieID := func(i int) int64 { return int64(movieIDs[i]) }
	dimID := func(i int) int64 { return int64(100 + i) }
	fact("castinfo", "person_id", "person", "movie_id", "movie", personID, movieID, nPersons, nMovies, 4*nPersons)
	fact("movietogenre", "movie_id", "movie", "genre_id", "genre", movieID, dimID, nMovies, genres*4/3+1, 2*nMovies)
	fact("sequelof", "movie_id", "movie", "original_id", "movie", movieID, movieID, nMovies, nMovies, nMovies/2)
	return db
}

// TestSkewedAdjacencyMatchesReference holds the linear adjacency of
// every link (adjacencyOf), the entity-association posting lists folded
// over it and the derived pair lists materialized over it to map-based
// references, built and loaded, on a skewed fixture (skewedDB): one
// person linked by thousands of fact rows, repeated pairs, NULL and
// dangling keys, a repeated dimension key, and movies that share a
// title.
func TestSkewedAdjacencyMatchesReference(t *testing.T) {
	built, err := Build(skewedDB(rand.New(rand.NewSource(44))), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := roundTrip(t, built)
	if err != nil {
		t.Fatal(err)
	}
	var seen shapes
	for _, road := range []struct {
		name string
		a    *AlphaDB
	}{{"built", built}, {"loaded", loaded}} {
		checkLayout(t, road.name, road.a)
		checkDerivedReference(t, road.a, &seen)
		ep := road.a.Snapshot()
		links := 0
		for _, name := range ep.DB.EntityRelations() {
			for _, p := range ep.Entity(name).Derived {
				if p.Target.Type == Degree {
					links++
					checkAdjacency(t, ep, p.link())
				}
			}
		}
		if links != 2 {
			t.Fatalf("%s: %d links, want castinfo's two", road.name, links)
		}
	}
	if !seen.repeatedPair || !seen.nullKey || !seen.factDim {
		t.Errorf("the fixture lacks a shape: %+v", seen)
	}
}

// checkAdjacency compares the adjacency of link k with the distinct
// (entity row, via row) pairs of a map over the fact rows, each key
// resolved to the first row holding it, and checks each entity row's
// via rows are in the order of the first fact row that links them.
func checkAdjacency(t *testing.T, ep *Epoch, k link) {
	t.Helper()
	ents, vias := firstRows(ep.DB.Relation(k.entity), ep.DB.Relation(k.entity).PrimaryKey), firstRows(ep.DB.Relation(k.via), k.viaPK)
	fact := ep.DB.Relation(k.fact)
	ec, vc := fact.Column(k.entCol), fact.Column(k.viaCol)
	want := make([][]uint32, ep.DB.Relation(k.entity).NumRows())
	seen := map[[2]int]bool{}
	for fr := range fact.NumRows() {
		if ec.IsNull(fr) || vc.IsNull(fr) {
			continue
		}
		e, eok := ents[ec.Int64(fr)]
		v, vok := vias[vc.Int64(fr)]
		if eok && vok && !seen[[2]int{e, v}] {
			seen[[2]int{e, v}] = true
			want[e] = append(want[e], uint32(v))
		}
	}
	adj := ep.adjacencyOf(k)
	if len(adj.offs) != len(want)+1 {
		t.Fatalf("%+v: %d offsets for %d entity rows", k, len(adj.offs), len(want))
	}
	for e, w := range want {
		if got := adj.of(e); !slices.Equal(got, w) {
			t.Fatalf("%+v: entity row %d links %v, the map reference %v", k, e, got, w)
		}
	}
}

// skewedDB is a castinfo between persons and movies in which person 1
// has 3,000 fact rows over 120 movies, most of them repeats, beside a
// few rows for every other person; one fact row in twenty has a NULL
// or a dangling key. Genre 2 holds its key twice (the later row is
// never linked; an entity's key cannot repeat, Build rejects it), 120
// titles are spread over 200 movies, some NULL, and movietogenre is a
// second hop.
func skewedDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase("skewed")
	genre := relation.New("genre", relation.Col("id", relation.Int), relation.Col("name", relation.String)).SetPrimaryKey("id")
	for i, g := range []string{"Drama", "Comedy", "Noir", "Horror"} {
		genre.MustAppend(relation.IntVal(int64(i)), relation.StringVal(g))
	}
	genre.MustAppend(relation.IntVal(2), relation.StringVal("Noir again"))
	db.AddRelation(genre)
	db.MarkProperty("genre")

	person := relation.New("person", relation.Col("id", relation.Int), relation.Col("name", relation.String)).SetPrimaryKey("id")
	for i := 1; i <= 300; i++ {
		person.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("person %d", i%250)))
	}
	db.AddRelation(person)
	db.MarkEntity("person")

	movie := relation.New("movie", relation.Col("id", relation.Int), relation.Col("title", relation.String), relation.Col("kind", relation.String)).SetPrimaryKey("id")
	for i := 1; i <= 200; i++ {
		title := relation.StringVal(fmt.Sprintf("title %d", rng.Intn(120)))
		if i%31 == 0 {
			title = relation.Null
		}
		movie.MustAppend(relation.IntVal(int64(i)), title, relation.StringVal([]string{"feature", "short", "series"}[rng.Intn(3)]))
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")

	// key draws a fact key: a NULL or a dangling one now and then.
	key := func(v int64) relation.Value {
		switch rng.Intn(40) {
		case 0:
			return relation.Null
		case 1:
			return relation.IntVal(100000 + v)
		}
		return relation.IntVal(v)
	}
	castinfo := relation.New("castinfo", relation.Col("person_id", relation.Int), relation.Col("movie_id", relation.Int)).
		AddForeignKey("person_id", "person", "id").AddForeignKey("movie_id", "movie", "id")
	var rows [][2]relation.Value
	for range 3000 {
		rows = append(rows, [2]relation.Value{key(1), key(int64(1 + rng.Intn(120)))})
	}
	for p := 2; p <= 300; p++ {
		for range rng.Intn(6) {
			rows = append(rows, [2]relation.Value{key(int64(p)), key(int64(1 + rng.Intn(200)))})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for _, r := range rows {
		castinfo.MustAppend(r[0], r[1])
	}
	db.AddRelation(castinfo)

	mg := relation.New("movietogenre", relation.Col("movie_id", relation.Int), relation.Col("genre_id", relation.Int)).
		AddForeignKey("movie_id", "movie", "id").AddForeignKey("genre_id", "genre", "id")
	for m := 1; m <= 200; m++ {
		for range 1 + rng.Intn(3) {
			mg.MustAppend(key(int64(m)), relation.IntVal(int64(rng.Intn(4))))
		}
	}
	db.AddRelation(mg)
	return db
}

// TestPairFindMatchesSearch holds codeStats.find, which interpolates
// within a chunk picked from the chunk table, to the plain binary
// search of the row vector (Chunked.Search) for every row up to the
// entity count, over lists built whole and grown by inserts that split
// their chunks: uniform, clustered at either end, and sparse. After
// every insert the strength vector keeps the row vector's chunk
// lengths.
func TestPairFindMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const entities = 5000
	for trial := 0; trial < 24; trial++ {
		var rows []uint32
		for r := range uint32(entities) {
			switch trial % 4 {
			case 0:
				if rng.Intn(3) == 0 {
					rows = append(rows, r)
				}
			case 1:
				if r < 400 || rng.Intn(50) == 0 {
					rows = append(rows, r)
				}
			case 2:
				if r > entities-300 || rng.Intn(40) == 0 {
					rows = append(rows, r)
				}
			case 3:
				if rng.Intn(400) == 0 {
					rows = append(rows, r)
				}
			}
		}
		built, inserted := rows[:len(rows)/2], rows[len(rows)/2:]
		var cs codeStats
		for _, r := range built {
			cs.appendPair(r, 1)
		}
		rng.Shuffle(len(inserted), func(i, j int) { inserted[i], inserted[j] = inserted[j], inserted[i] })
		g := new(relation.Gen)
		for _, r := range inserted {
			ci, off, found := cs.find(int(r), entities)
			if found {
				t.Fatalf("trial %d: row %d found before its insert", trial, r)
			}
			cs.insertPair(g, ci, off, r)
			if err := lockstep(&cs); err != nil {
				t.Fatalf("trial %d: after inserting row %d: %v", trial, r, err)
			}
		}
		for row := range entities + 1 {
			ci, off, found := cs.find(row, entities)
			wci, woff := cs.rows.Search(func(r uint32) bool { return int(r) >= row })
			if ci != wci || off != woff || found != slices.Contains(rows, uint32(row)) {
				t.Fatalf("trial %d: find(%d) = (%d, %d, %v), the search gives (%d, %d)", trial, row, ci, off, found, wci, woff)
			}
		}
	}
}

// lockstep reports whether a pair list's strength vector has its row
// vector's chunk lengths.
func lockstep(cs *codeStats) error {
	if cs.rows.NumChunks() != cs.strengths.NumChunks() || cs.rows.Len() != cs.strengths.Len() {
		return fmt.Errorf("%d rows in %d chunks, %d strengths in %d", cs.rows.Len(), cs.rows.NumChunks(), cs.strengths.Len(), cs.strengths.NumChunks())
	}
	for ci := range cs.rows.NumChunks() {
		if r, s := len(cs.rows.Chunk(ci)), len(cs.strengths.Chunk(ci)); r != s {
			return fmt.Errorf("chunk %d holds %d rows and %d strengths", ci, r, s)
		}
	}
	return nil
}
