package engine

import (
	"context"
	"math/rand"
	"testing"

	"squid/internal/relation"
)

func randomPair(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase("rand")
	a := relation.New("a",
		relation.Col("id", relation.Int),
		relation.Col("v", relation.Int),
	)
	b := relation.New("b",
		relation.Col("aid", relation.Int),
		relation.Col("w", relation.Int),
	)
	na, nb := 1+rng.Intn(40), 1+rng.Intn(60)
	for i := 0; i < na; i++ {
		a.MustAppend(relation.IntVal(int64(rng.Intn(15))), relation.IntVal(int64(rng.Intn(10))))
	}
	for i := 0; i < nb; i++ {
		v := relation.IntVal(int64(rng.Intn(15)))
		if rng.Intn(10) == 0 {
			v = relation.Null // exercise NULL join keys
		}
		b.MustAppend(v, relation.IntVal(int64(rng.Intn(10))))
	}
	db.AddRelation(a)
	db.AddRelation(b)
	return db
}

// TestHashJoinMatchesNestedLoop feeds 100 random two-relation joins
// (duplicate and NULL keys, range predicates on either side) to the
// differential check.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20190625)) // paper's arXiv date as seed
	for trial := 0; trial < 100; trial++ {
		db := randomPair(rng)
		preds := []Pred{}
		if rng.Intn(2) == 0 {
			preds = append(preds, Pred{Rel: "a", Col: "v", Op: OpGE, Val: relation.IntVal(int64(rng.Intn(10)))})
		}
		if rng.Intn(2) == 0 {
			preds = append(preds, Pred{Rel: "b", Col: "w", Op: OpLE, Val: relation.IntVal(int64(rng.Intn(10)))})
		}
		checkDifferential(t, db, &Query{
			From:   []string{"a", "b"},
			Joins:  []Join{{"a", "id", "b", "aid"}},
			Preds:  preds,
			Select: []ColRef{{"a", "v"}, {"b", "w"}},
		})
	}
}

// TestAggregationMatchesManualCount cross-checks GROUP BY/HAVING against a
// manual count on random fact tables.
func TestAggregationMatchesManualCount(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 50; trial++ {
		db := relation.NewDatabase("rand")
		e := relation.New("e", relation.Col("id", relation.Int))
		nEnt := 1 + rng.Intn(20)
		for i := 0; i < nEnt; i++ {
			e.MustAppend(relation.IntVal(int64(i)))
		}
		f := relation.New("f", relation.Col("eid", relation.Int))
		counts := make(map[int64]int)
		nFact := rng.Intn(200)
		for i := 0; i < nFact; i++ {
			id := int64(rng.Intn(nEnt))
			counts[id]++
			f.MustAppend(relation.IntVal(id))
		}
		db.AddRelation(e)
		db.AddRelation(f)
		threshold := 1 + rng.Intn(10)
		q := &Query{
			From:          []string{"e", "f"},
			Joins:         []Join{{"e", "id", "f", "eid"}},
			Select:        []ColRef{{"e", "id"}},
			GroupBy:       []ColRef{{"e", "id"}},
			HavingCountGE: threshold,
		}
		res, err := NewExecutor(db).ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, c := range counts {
			if c >= threshold {
				want++
			}
		}
		if res.NumRows() != want {
			t.Fatalf("trial %d: HAVING count>=%d got %d groups want %d", trial, threshold, res.NumRows(), want)
		}
	}
}
