package adb

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"squid/internal/relation"
	"squid/internal/trace"
)

// TestBytesAtLeastMatchesCompare holds the eight-at-a-step byte compare
// of a dense column's scan to a per-byte compare for every pair of byte
// values, at every position of the word among neighbors that would
// borrow into it if a difference could, and gatherHigh to the bits it
// packs.
func TestBytesAtLeastMatchesCompare(t *testing.T) {
	for x := range 256 {
		for theta := range 256 {
			for pos := range 8 {
				w := uint64(0xff00ff0000ff00ff)&^(0xff<<(8*pos)) | uint64(x)<<(8*pos)
				m := bytesAtLeast(w, uint64(theta)*byteOnes)
				for k := range 8 {
					b := uint8(w >> (8 * k))
					if got, want := m>>(8*k)&0xff == 0x80, int(b) >= theta; got != want || m>>(8*k)&0x7f != 0 {
						t.Fatalf("byte %d of %#x against %d: mask %#x, want at least %v", k, w, theta, m, want)
					}
				}
				g := gatherHigh(m)
				for k := range 8 {
					if g>>k&1 != m>>(8*k+7)&1 {
						t.Fatalf("gatherHigh(%#x) = %#x: bit %d is not byte %d's", m, g, k, k)
					}
				}
				if g >= 256 || bits.OnesCount64(g) != bits.OnesCount64(m) {
					t.Fatalf("gatherHigh(%#x) = %#x", m, g)
				}
			}
		}
	}
}

// edgeDB is a cast of 20 persons over 310 movies, the first 300 of
// genre "edge" and the last 10 "below". Persons 0, 5, 10 and 15 hold
// edge — person 0 in all 300 of its movies, past the byte's saturation —
// so its 4 pairs are a fifth of the persons; persons 1, 2 and 3 hold
// below, one pair fewer.
func edgeDB() *relation.Database {
	db := relation.NewDatabase("edge")
	person := relation.New("person", relation.Col("id", relation.Int), relation.Col("name", relation.String)).SetPrimaryKey("id")
	for id := range int64(20) {
		person.MustAppend(relation.IntVal(id), relation.StringVal(fmt.Sprintf("person %d", id)))
	}
	db.AddRelation(person)
	db.MarkEntity("person")
	movie := relation.New("movie", relation.Col("id", relation.Int), relation.Col("title", relation.String), relation.Col("genre", relation.String)).SetPrimaryKey("id")
	for id := range int64(310) {
		genre := "edge"
		if id >= 300 {
			genre = "below"
		}
		movie.MustAppend(relation.IntVal(id), relation.StringVal(fmt.Sprintf("movie %d", id)), relation.StringVal(genre))
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")
	castinfo := relation.New("castinfo", relation.Col("person_id", relation.Int), relation.Col("movie_id", relation.Int)).
		AddForeignKey("person_id", "person", "id").AddForeignKey("movie_id", "movie", "id")
	cast := func(p, m int64) { castinfo.MustAppend(relation.IntVal(p), relation.IntVal(m)) }
	for m := range int64(300) {
		cast(0, m)
	}
	for _, p := range []int64{5, 10, 15} {
		cast(p, p)
	}
	cast(10, 20)
	cast(10, 21)
	cast(1, 300)
	cast(2, 300)
	for m := int64(300); m < 303; m++ {
		cast(3, m)
	}
	db.AddRelation(castinfo)
	return db
}

// TestDenseRuleEdge pins the layout rule at its edge: a value whose
// pairs are a fifth of the entities is a dense column, and one with a
// pair fewer a list. Each value, built and loaded, then answers in the
// other layout exactly as in its own (checkRelayout).
func TestDenseRuleEdge(t *testing.T) {
	built, err := Build(edgeDB(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := roundTrip(t, built)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*AlphaDB{built, loaded} {
		info := a.Entity("person")
		p := info.DerivedByAttr("movie:genre")
		for v, dense := range map[string]bool{"edge": true, "below": false} {
			cs := p.statsOf(p.code(v))
			if cs.dense != dense || cs.pairs() != map[string]int{"edge": 4, "below": 3}[v] {
				t.Fatalf("%s: %d pairs over %d persons, dense %v, want %v", v, cs.pairs(), p.NumEntities(), cs.dense, dense)
			}
		}
		if got := p.StrengthOfCode(0, p.code("edge")); got != 300 {
			t.Fatalf("person 0's edge strength is %d, want 300", got)
		}
		if p.DenseValues() != 1 {
			t.Fatalf("%d dense values, want 1", p.DenseValues())
		}
		for _, q := range info.Derived {
			checkRelayout(t, info, q)
		}
	}
}

// relayout returns the value's pairs in the other layout, as a build
// that picked it would lay them out.
func relayout(cs *codeStats, entities int) codeStats {
	out := codeStats{dense: !cs.dense, ge: cs.ge}
	col := make([]uint8, entities)
	for row, c := range cs.all() {
		if out.dense {
			col[row] = uint8(min(c, saturated))
			out.noteOver(row, c)
		} else {
			out.appendPair(row, c)
		}
	}
	if out.dense {
		out.strengths = relation.ChunkedOf(col)
	}
	return out
}

// checkRelayout holds every value of p to a twin of p whose values are
// all laid out the other way: every entity's strength, ψ and the row
// sets at every θ up to past the largest strength and around the
// saturation point, the normalized-θ sets, and the view rows, of the
// whole relation and of each value.
func checkRelayout(t *testing.T, info *EntityInfo, p *DerivedProperty) {
	t.Helper()
	twin := *p
	twin.memo = newRowSetMemo(&SelCache{})
	stats := make([]codeStats, p.codes.Len())
	for code := range stats {
		stats[code] = relayout(p.codes.Ref(code), p.numEntities)
	}
	twin.codes = relation.ChunkedOf(stats)
	degree := info.DerivedByAttr(p.Via + ":count")
	sets := func(q *DerivedProperty, code int32, theta int) []int {
		return q.EntityRowSetWithStrength(code, theta, trace.Span{}, false).ToSorted()
	}
	for code := range int32(p.codes.Len()) {
		where := fmt.Sprintf("%s %q (dense %v)", p.RelName, p.DecodeValue(code), p.statsOf(code).dense)
		for row := range p.numEntities {
			if got, want := twin.StrengthOfCode(row, code), p.StrengthOfCode(row, code); got != want {
				t.Fatalf("%s: row %d's strength %d relaid, %d as built", where, row, got, want)
			}
		}
		top := p.maxStrength(code)
		for _, theta := range []int{0, 1, 2, 3, top - 1, top, top + 1, 254, 255, 256, 257} {
			if got, want := sets(&twin, code, theta), sets(p, code, theta); !slices.Equal(got, want) {
				t.Fatalf("%s at θ %d: rows %v relaid, %v as built", where, theta, got, want)
			}
			if got, want := twin.SelectivityOfCode(code, theta), p.SelectivityOfCode(code, theta); got != want {
				t.Fatalf("%s: ψ at θ %d is %v relaid, %v as built", where, theta, got, want)
			}
		}
		for _, thetaN := range []float64{0.25, 0.5, 1} {
			got := twin.EntityRowSetWithNormStrength(code, thetaN, degree, trace.Span{}, false).ToSorted()
			want := p.EntityRowSetWithNormStrength(code, thetaN, degree, trace.Span{}, false).ToSorted()
			if !slices.Equal(got, want) {
				t.Fatalf("%s at θn %v: rows %v relaid, %v as built", where, thetaN, got, want)
			}
		}
		if got, want := viewText(twin.viewRows(info, []int32{code})), viewText(p.viewRows(info, []int32{code})); got != want {
			t.Fatalf("%s: view rows\n%s\nrelaid, as built\n%s", where, got, want)
		}
	}
	if got, want := viewText(twin.viewRows(info, nil)), viewText(p.viewRows(info, nil)); got != want {
		t.Fatalf("%s: view rows\n%s\nrelaid, as built\n%s", p.RelName, got, want)
	}
	if got, want := twin.DistinctValues(), p.DistinctValues(); !slices.Equal(got, want) {
		t.Fatalf("%s: values %v relaid, %v as built", p.RelName, got, want)
	}
}

// viewText renders a relation's rows, one a line.
func viewText(r *relation.Relation) string {
	var out []byte
	for i := range r.NumRows() {
		out = fmt.Appendln(out, r.Row(i))
	}
	return string(out)
}
