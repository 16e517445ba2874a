package abduction

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"squid/internal/adb"
	"squid/internal/relation"
	"squid/internal/trace"
)

// buildersDB generates the statistics the four row-set builders read, at
// 640 persons — ten 64-row words, so the sparse limit the sized
// constructor picks a form against is 20 members — with the counts that
// straddle it planted: single-valued genders held by 19, 20 and 21
// persons; a multi-valued language attribute whose lists overlap, so a
// disjunction's expected count (the lists' total: 19, 20, 21 for three
// of the pairs) overstates its union; a numeric score that is NULL on
// every ninth row and otherwise the row number, so a window's count is
// its width less its NULLs; and decades a person is cast in between one
// and nine times, reached by 19, 20 and 21 persons.
func buildersDB(t *testing.T) *adb.AlphaDB {
	t.Helper()
	const persons = 640
	rng := rand.New(rand.NewSource(23))
	db := relation.NewDatabase("builders")

	lang := relation.New("lang", relation.Col("id", relation.Int), relation.Col("name", relation.String)).SetPrimaryKey("id")
	for i := 0; i < 8; i++ {
		lang.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("Lang %d", i)))
	}
	db.AddRelation(lang)
	db.MarkProperty("lang")

	person := relation.New("person",
		relation.Col("id", relation.Int), relation.Col("name", relation.String),
		relation.Col("gender", relation.String), relation.Col("score", relation.Float),
	).SetPrimaryKey("id")
	for i := 0; i < persons; i++ {
		gender := relation.StringVal([]string{"Female", "Male"}[rng.Intn(2)])
		switch {
		case i < 19:
			gender = relation.StringVal("G19")
		case i < 39:
			gender = relation.StringVal("G20")
		case i < 60:
			gender = relation.StringVal("G21")
		case i%10 == 0:
			gender = relation.Null
		}
		score := relation.FloatVal(float64(i))
		if i%9 == 0 {
			score = relation.Null
		}
		person.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("Person %d", i)), gender, score)
	}
	db.AddRelation(person)
	db.MarkEntity("person")

	speaks := relation.New("speaks", relation.Col("person_id", relation.Int), relation.Col("lang_id", relation.Int)).
		AddForeignKey("person_id", "person", "id").AddForeignKey("lang_id", "lang", "id")
	// Lang 0 is spoken by persons 100–111; langs 1, 2 and 3 by 8, 9 and
	// 7 persons from 108 on, four of whom speak lang 0 too; langs 4–7
	// are drawn, large enough to fill dense sets.
	for l, span := range [][2]int{{100, 112}, {108, 116}, {108, 117}, {108, 115}} {
		for p := span[0]; p < span[1]; p++ {
			speaks.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64(l)))
		}
	}
	for p := 0; p < persons; p++ {
		for l := 4; l < 8; l++ {
			if rng.Intn(l) == 0 {
				speaks.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64(l)))
			}
		}
	}
	db.AddRelation(speaks)

	const decades = 6
	movie := relation.New("movie",
		relation.Col("id", relation.Int), relation.Col("title", relation.String), relation.Col("decade", relation.String),
	).SetPrimaryKey("id")
	// Nine movies a decade: movie d*9+k is the k-th of decade d.
	for i := 0; i < decades*9; i++ {
		movie.MustAppend(relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("Title %d", i)), relation.StringVal(fmt.Sprintf("%d0s", 190+i/9)))
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")
	cast := relation.New("castinfo", relation.Col("person_id", relation.Int), relation.Col("movie_id", relation.Int)).
		AddForeignKey("person_id", "person", "id").AddForeignKey("movie_id", "movie", "id")
	// Decades 0, 1 and 2 are reached by the first 19, 20 and 21 persons,
	// person p at strength 1 + p%9; decades 3–5 by a drawn third, half
	// and two thirds of everybody.
	for d := 0; d < decades; d++ {
		for p := 0; p < persons; p++ {
			n := 0
			switch {
			case d < 3 && p < 19+d:
				n = 1 + p%9
			case d >= 3 && rng.Intn(6) < d-1:
				n = 1 + rng.Intn(9)
			}
			for k := 0; k < n; k++ {
				cast.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64(d*9+k)))
			}
		}
	}
	db.AddRelation(cast)

	alpha, err := adb.Build(db, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return alpha
}

// TestRowSetBuildersMatchScan holds every EntityRowSet* builder to the
// rows Filter.SatisfiedBy accepts in a full scan — the statistic a set
// is sized and filled from against the per-entity forward data — on the
// built αDB and again after inserts have appended entities past the
// built universe, put rows into the numeric value order, into the
// middle of posting lists and bumped strengths. It fails unless every
// builder was seen with an expected count just under, at and just over
// the sparse limit: both initial forms, and the picks nearest the
// boundary.
func TestRowSetBuildersMatchScan(t *testing.T) {
	alpha := buildersDB(t)
	// expected[builder] collects the expected counts, relative to the
	// sparse limit of the epoch they were seen in, that the sweep met.
	expected := map[string]map[int]bool{}
	sweep := func(phase string) {
		ep := alpha.Snapshot()
		info := ep.Entity("person")
		n := info.NumRows
		limit := max(16, 2*((n+63)/64))
		check := func(builder string, f *Filter, count int) {
			t.Helper()
			if expected[builder] == nil {
				expected[builder] = map[int]bool{}
			}
			expected[builder][count-limit] = true
			var want []int
			for row := 0; row < n; row++ {
				if f.SatisfiedBy(info, row) {
					want = append(want, row)
				}
			}
			if got := f.RowSet().ToSorted(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s %v (expected count %d, limit %d): the set holds %d rows, the scan accepts %d",
					phase, builder, f, count, limit, len(got), len(want))
			}
		}
		for _, attr := range []string{"gender", "lang"} {
			p := info.BasicByAttr(attr)
			if p == nil {
				t.Fatalf("no %s property", attr)
			}
			values := p.DistinctValues()
			count := func(v string) int {
				code, _ := p.LookupCode(v)
				return p.Postings().Count(int(code))
			}
			for i, v := range values {
				check("any-value", &Filter{Kind: BasicCategorical, Basic: p, Values: []string{v}}, count(v))
				for _, w := range values[i+1:] {
					check("any-value", &Filter{Kind: BasicCategorical, Basic: p, Values: []string{v, w}}, count(v)+count(w))
				}
			}
		}
		score := info.BasicByAttr("score")
		inRange := func(lo, hi float64) int {
			k := 0
			for row := 0; row < n; row++ {
				if v, ok := score.NumValue(row); ok && lo <= v && v <= hi {
					k++
				}
			}
			return k
		}
		for lo := -3; lo < n+3; lo += 7 {
			for _, width := range []int{0, 1, 5, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 64, 200, n} {
				f := &Filter{Kind: BasicNumeric, Basic: score, Lo: float64(lo), Hi: float64(lo + width)}
				check("in-range", f, inRange(f.Lo, f.Hi))
			}
		}
		check("in-range", &Filter{Kind: BasicNumeric, Basic: score, Lo: 10, Hi: 5}, 0)
		decade, degree := info.DerivedByAttr("movie:decade"), info.DerivedByAttr("movie:count")
		if decade == nil || degree == nil {
			t.Fatal("no movie:decade or movie:count property")
		}
		for _, v := range decade.DistinctValues() {
			code, _ := decade.LookupCode(v)
			// Every θ up to one past the largest strength, where ψ reads 0.
			for theta, psi := 1, 1.0; psi > 0; theta++ {
				psi = decade.SelectivityOfCode(code, theta)
				f := &Filter{Kind: Derived, Derivd: decade, Values: []string{v}, Theta: theta}
				check("strength", f, int(psi*float64(n)+0.5))
			}
			for _, thetaN := range []float64{0.05, 0.2, 0.5, 1} {
				f := &Filter{Kind: Derived, Derivd: decade, Values: []string{v}, ThetaN: thetaN, NormUse: true, degree: degree}
				check("norm-strength", f, int(decade.SelectivityOfCode(code, 1)*float64(n)+0.5))
			}
		}
		check("strength", &Filter{Kind: Derived, Derivd: decade, Values: []string{"no such decade"}, Theta: 1}, 0)
	}
	sweep("built")

	// 70 more persons (12 words, limit 24), each with a score, a
	// language and a cast credit; then facts for persons of the build:
	// languages that land inside posting lists and credits that bump
	// strengths 1..9 upwards.
	rng := rand.New(rand.NewSource(29))
	var ops []adb.InsertOp
	for i := 640; i < 710; i++ {
		score := relation.FloatVal(float64(rng.Intn(700)))
		if i%6 == 0 {
			score = relation.Null
		}
		ops = append(ops,
			adb.InsertOp{Rel: "person", Vals: []relation.Value{
				relation.IntVal(int64(i)), relation.StringVal(fmt.Sprintf("Person %d", i)),
				relation.StringVal([]string{"Female", "Male", "G20"}[rng.Intn(3)]), score}},
			adb.InsertOp{Rel: "speaks", Vals: []relation.Value{relation.IntVal(int64(i)), relation.IntVal(int64(rng.Intn(8)))}},
			adb.InsertOp{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(int64(i)), relation.IntVal(int64(rng.Intn(54)))}})
	}
	for i := 0; i < 120; i++ {
		p := int64(rng.Intn(640))
		ops = append(ops,
			adb.InsertOp{Rel: "speaks", Vals: []relation.Value{relation.IntVal(p), relation.IntVal(int64(rng.Intn(8)))}},
			adb.InsertOp{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(p), relation.IntVal(int64(rng.Intn(54)))}})
	}
	for len(ops) > 0 {
		k := min(len(ops), 50)
		if err := alpha.InsertBatch(ops[:k], trace.Span{}); err != nil {
			t.Fatal(err)
		}
		ops = ops[k:]
	}
	sweep("after inserts")

	for _, builder := range []string{"any-value", "in-range", "strength", "norm-strength"} {
		for _, d := range []int{-1, 0, 1} {
			if !expected[builder][d] {
				t.Errorf("%s was never asked for a set of sparse limit %+d members", builder, d)
			}
		}
	}
}
