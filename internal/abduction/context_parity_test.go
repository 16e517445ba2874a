package abduction

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"squid/internal/adb"
	"squid/internal/relation"
)

// The functions below are context discovery as it was before the
// intersections moved off Go maps — a map[int32]int per categorical
// property, a map[int32]*agg per derived one, a map per deduplicated
// row — kept as the oracle of TestContextIntersectionMatchesMapOracle.

func categoricalContextsByMap(prop *adb.BasicProperty, exampleRows []int, params Params) []Context {
	shared := make(map[int32]int)
	for _, c := range dedupCodesByMap(prop.AppendValueCodes(nil, exampleRows[0])) {
		shared[c] = 1
	}
	for _, row := range exampleRows[1:] {
		if len(shared) == 0 {
			break
		}
		for _, c := range dedupCodesByMap(prop.AppendValueCodes(nil, row)) {
			if n, ok := shared[c]; ok && n == 1 {
				shared[c] = 2
			}
		}
		for c, n := range shared {
			if n == 2 {
				shared[c] = 1
			} else {
				delete(shared, c)
			}
		}
	}
	var out []Context
	for _, v := range decodeSortedByMap(prop, shared) {
		out = append(out, Context{
			Filter:      &Filter{Kind: BasicCategorical, Basic: prop, Values: []string{v}},
			NumExamples: len(exampleRows),
		})
	}
	if len(out) > 0 || params.MaxDisjunction == 0 || prop.MultiValued {
		return out
	}
	distinct := make(map[int32]struct{})
	for _, row := range exampleRows {
		codes := prop.AppendValueCodes(nil, row)
		if len(codes) == 0 {
			return out
		}
		distinct[codes[0]] = struct{}{}
	}
	if len(distinct) < 2 || len(distinct) > params.MaxDisjunction {
		return out
	}
	vals := make([]string, 0, len(distinct))
	for c := range distinct {
		vals = append(vals, prop.DecodeValue(c))
	}
	sort.Strings(vals)
	return append(out, Context{
		Filter:      &Filter{Kind: BasicCategorical, Basic: prop, Values: vals},
		NumExamples: len(exampleRows),
	})
}

func decodeSortedByMap[V any](prop *adb.BasicProperty, m map[int32]V) []string {
	out := make([]string, 0, len(m))
	for c := range m {
		out = append(out, prop.DecodeValue(c))
	}
	sort.Strings(out)
	return out
}

func dedupCodesByMap(xs []int32) []int32 {
	if len(xs) < 2 {
		return xs
	}
	seen := make(map[int32]struct{}, len(xs))
	out := make([]int32, 0, len(xs))
	for _, x := range xs {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	return out
}

func derivedContextsByMap(st *exampleState, prop *adb.DerivedProperty, params Params) []Context {
	exampleRows := st.rows
	var degree *adb.DerivedProperty
	if params.NormalizeAssociation {
		degree = st.info.DerivedByAttr(prop.Via + ":count")
	}
	degs := st.degreesFor(degree)
	type agg struct {
		minCount int
		minFrac  float64
		seen     int
	}
	shared := make(map[int32]*agg)
	for i := range exampleRows {
		counts, _ := prop.AppendCounts(nil, nil, exampleRows[i])
		d := 0.0
		if degs != nil {
			d = degs[i]
		}
		for _, cc := range counts {
			v, c := cc.Code, cc.Count
			frac := 0.0
			if d > 0 {
				frac = float64(c) / d
			}
			if i == 0 {
				shared[v] = &agg{minCount: c, minFrac: frac, seen: 1}
				continue
			}
			a, ok := shared[v]
			if !ok || a.seen != i {
				continue
			}
			a.seen++
			if c < a.minCount {
				a.minCount = c
			}
			if frac < a.minFrac {
				a.minFrac = frac
			}
		}
		for v, a := range shared {
			if a.seen != i+1 {
				delete(shared, v)
			}
		}
	}
	codes := make([]int32, 0, len(shared))
	for c := range shared {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return prop.DecodeValue(codes[i]) < prop.DecodeValue(codes[j]) })
	var out []Context
	for _, code := range codes {
		a := shared[code]
		f := &Filter{Kind: Derived, Derivd: prop, Values: []string{prop.DecodeValue(code)}, Theta: a.minCount}
		if params.NormalizeAssociation && degree != nil {
			f.NormUse = true
			f.ThetaN = a.minFrac
			f.degree = degree
		}
		out = append(out, Context{Filter: f, NumExamples: len(exampleRows)})
	}
	return out
}

// parityDB generates the shapes the intersections have to survive:
// single-valued attributes with NULLs (empty code lists), a multi-valued
// association whose display values repeat (the same code twice in one
// row's list), persons without a single movie, and hubs cast in more
// than a thousand.
func parityDB(t *testing.T, rng *rand.Rand) *adb.Epoch {
	t.Helper()
	const persons, movies, hubs = 120, 1500, 6
	db := relation.NewDatabase("parity")

	genre := relation.New("genre", relation.Col("id", relation.Int), relation.Col("name", relation.String)).SetPrimaryKey("id")
	for i := 0; i < 9; i++ {
		genre.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("Genre %d", i)))
	}
	db.AddRelation(genre)
	db.MarkProperty("genre")

	person := relation.New("person",
		relation.Col("id", relation.Int), relation.Col("name", relation.String),
		relation.Col("gender", relation.String), relation.Col("country", relation.String),
	).SetPrimaryKey("id")
	for i := 0; i < persons; i++ {
		gender, country := relation.StringVal([]string{"Female", "Male"}[rng.Intn(2)]), relation.StringVal(fmt.Sprintf("Country %d", rng.Intn(4)))
		if rng.Intn(10) == 0 {
			gender = relation.Null
		}
		if rng.Intn(10) == 0 {
			country = relation.Null
		}
		person.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("Person %d", i)), gender, country)
	}
	db.AddRelation(person)
	db.MarkEntity("person")

	movie := relation.New("movie",
		relation.Col("id", relation.Int), relation.Col("title", relation.String), relation.Col("decade", relation.String),
	).SetPrimaryKey("id")
	mg := relation.New("movietogenre", relation.Col("movie_id", relation.Int), relation.Col("genre_id", relation.Int)).
		AddForeignKey("movie_id", "movie", "id").AddForeignKey("genre_id", "genre", "id")
	for i := 0; i < movies; i++ {
		// Titles repeat past 1,200: remakes share a code.
		movie.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("Title %d", i%1200)),
			relation.StringVal(fmt.Sprintf("%d0s", 195+rng.Intn(7))))
		for _, g := range rng.Perm(9)[:1+rng.Intn(3)] {
			mg.MustAppend(relation.IntVal(int64(i)), relation.IntVal(int64(g)))
		}
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")
	db.AddRelation(mg)

	cast := relation.New("castinfo", relation.Col("person_id", relation.Int), relation.Col("movie_id", relation.Int)).
		AddForeignKey("person_id", "person", "id").AddForeignKey("movie_id", "movie", "id")
	for p := 0; p < persons; p++ {
		n := rng.Intn(40)
		switch {
		case p < hubs:
			n = 1000 + rng.Intn(400)
		case p%7 == 0:
			n = 0
		}
		for _, m := range rng.Perm(movies)[:n] {
			cast.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64(m)))
		}
		// A few shared movies, so small example sets intersect.
		for m := 0; m < 3 && n > 0; m++ {
			cast.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64(m)))
		}
	}
	db.AddRelation(cast)
	alpha, err := adb.Build(db, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return alpha.Snapshot()
}

func sameContexts(got, want []Context) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d contexts, the oracle %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i].Filter, want[i].Filter
		if got[i].NumExamples != want[i].NumExamples || g.Kind != w.Kind || g.Basic != w.Basic || g.Derivd != w.Derivd ||
			!slices.Equal(g.Values, w.Values) || g.Theta != w.Theta || g.ThetaN != w.ThetaN || g.NormUse != w.NormUse || g.degree != w.degree {
			return fmt.Errorf("context %d is %s (θn %v, norm %v), the oracle's %s (θn %v, norm %v)", i, g, g.ThetaN, g.NormUse, w, w.ThetaN, w.NormUse)
		}
	}
	return nil
}

// TestContextIntersectionMatchesMapOracle holds the sorted-scratch
// intersections to the map implementations on generated example sets:
// single examples, sets with an example that lacks the property, sets of
// hubs whose rows hold more than a thousand codes, duplicate codes in a
// row — for categoricalContexts with and without the disjunction branch
// and derivedContexts with and without NormalizeAssociation. One
// exampleState serves a whole set, so the scratch is reused the way a
// discovery reuses it.
func TestContextIntersectionMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	info := parityDB(t, rng).Entity("person")
	longest, repeats := 0, false
	for row := 0; row < info.NumRows; row++ {
		for _, p := range info.Basic {
			codes := p.AppendValueCodes(nil, row)
			longest = max(longest, len(codes))
			sorted := slices.Clone(codes)
			slices.Sort(sorted)
			repeats = repeats || len(slices.Compact(sorted)) < len(codes)
		}
	}
	if longest < 1000 || !repeats {
		t.Fatalf("fixture: longest row %d codes, repeats %v; want a 1,000-code row and a repeated code", longest, repeats)
	}
	variants := []Params{DefaultParams(), DefaultParams(), DefaultParams(), DefaultParams()}
	variants[1].MaxDisjunction = 3
	variants[2].NormalizeAssociation = true
	variants[3].MaxDisjunction, variants[3].NormalizeAssociation = 2, true
	nonEmpty := 0
	for trial := 0; trial < 400; trial++ {
		rows := make([]int, 1+rng.Intn(6))
		for i := range rows {
			switch trial % 3 {
			case 0: // hubs only: long lists, large intersections
				rows[i] = rng.Intn(6)
			case 1:
				rows[i] = rng.Intn(info.NumRows)
			default: // a hub first, so the shared set starts long
				rows[i] = rng.Intn(info.NumRows)
				rows[0] = rng.Intn(6)
			}
		}
		params := variants[trial%len(variants)]
		st, oracle := newExampleState(info, rows, params), newExampleState(info, rows, params)
		for _, prop := range info.Basic {
			if prop.Kind != adb.Categorical {
				continue
			}
			got, want := categoricalContexts(nil, st, prop, params), categoricalContextsByMap(prop, rows, params)
			if err := sameContexts(got, want); err != nil {
				t.Fatalf("trial %d, rows %v, %s: %v", trial, rows, prop, err)
			}
			nonEmpty += len(want)
		}
		for _, prop := range info.Derived {
			got, want := derivedContexts(nil, st, prop, params), derivedContextsByMap(oracle, prop, params)
			if err := sameContexts(got, want); err != nil {
				t.Fatalf("trial %d, rows %v, %s (normalize %v): %v", trial, rows, prop, params.NormalizeAssociation, err)
			}
			nonEmpty += len(want)
		}
	}
	if nonEmpty < 1000 {
		t.Fatalf("only %d contexts compared: the fixture does not exercise the intersections", nonEmpty)
	}
}
