package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"squid/internal/relation"
)

// threeWayReference evaluates e ⋈ f ⋈ d with predicates by triple nested
// loops, as the oracle for the hash-join path on star joins.
func threeWayReference(e, f, d *relation.Relation, preds []Pred) map[string]int {
	out := map[string]int{}
	eid, feid, fdid, did := e.Column("id"), f.Column("eid"), f.Column("did"), d.Column("id")
	match := func(rel string, row int, r *relation.Relation) bool {
		for _, p := range preds {
			if p.Rel != rel {
				continue
			}
			if !p.Matches(r.Get(row, p.Col)) {
				return false
			}
		}
		return true
	}
	for i := 0; i < e.NumRows(); i++ {
		if !match("e", i, e) {
			continue
		}
		for j := 0; j < f.NumRows(); j++ {
			if feid.IsNull(j) || eid.IsNull(i) || feid.Int64(j) != eid.Int64(i) || !match("f", j, f) {
				continue
			}
			for k := 0; k < d.NumRows(); k++ {
				if fdid.IsNull(j) || did.IsNull(k) || fdid.Int64(j) != did.Int64(k) || !match("d", k, d) {
					continue
				}
				key := e.Get(i, "v").String() + "|" + d.Get(k, "v").String()
				out[key]++
			}
		}
	}
	return out
}

// TestThreeWayJoinMatchesReference cross-checks the executor on random
// star schemas (entity ⋈ fact ⋈ dimension), the join shape every SQuID
// query uses.
func TestThreeWayJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 60; trial++ {
		db := relation.NewDatabase("star")
		e := relation.New("e", relation.Col("id", relation.Int), relation.Col("v", relation.Int))
		d := relation.New("d", relation.Col("id", relation.Int), relation.Col("v", relation.Int))
		f := relation.New("f", relation.Col("eid", relation.Int), relation.Col("did", relation.Int))
		ne, nd, nf := 1+rng.Intn(15), 1+rng.Intn(8), rng.Intn(60)
		for i := 0; i < ne; i++ {
			e.MustAppend(relation.IntVal(int64(i)), relation.IntVal(int64(rng.Intn(5))))
		}
		for i := 0; i < nd; i++ {
			d.MustAppend(relation.IntVal(int64(i)), relation.IntVal(int64(rng.Intn(5))))
		}
		for i := 0; i < nf; i++ {
			f.MustAppend(relation.IntVal(int64(rng.Intn(ne+2))), relation.IntVal(int64(rng.Intn(nd+2))))
		}
		db.AddRelation(e)
		db.AddRelation(d)
		db.AddRelation(f)

		var preds []Pred
		if rng.Intn(2) == 0 {
			preds = append(preds, Pred{Rel: "e", Col: "v", Op: OpLE, Val: relation.IntVal(int64(rng.Intn(5)))})
		}
		if rng.Intn(2) == 0 {
			preds = append(preds, Pred{Rel: "d", Col: "v", Op: OpEq, Val: relation.IntVal(int64(rng.Intn(5)))})
		}

		q := &Query{
			From: []string{"e", "f", "d"},
			Joins: []Join{
				{LeftRel: "e", LeftCol: "id", RightRel: "f", RightCol: "eid"},
				{LeftRel: "f", LeftCol: "did", RightRel: "d", RightCol: "id"},
			},
			Preds:  preds,
			Select: []ColRef{{Rel: "e", Col: "v"}, {Rel: "d", Col: "v"}},
		}
		res, err := NewExecutor(db).ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := map[string]int{}
		for _, row := range res.Rows {
			got[row[0].String()+"|"+row[1].String()]++
		}
		want := threeWayReference(e, f, d, preds)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: three-way join mismatch\n got %v\nwant %v", trial, got, want)
		}
	}
}

// TestGroupByHavingOnStarJoin property-checks HAVING count thresholds on
// the star shape against a manual reference count.
func TestGroupByHavingOnStarJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(159))
	for trial := 0; trial < 40; trial++ {
		db := relation.NewDatabase("star")
		e := relation.New("e", relation.Col("id", relation.Int))
		f := relation.New("f", relation.Col("eid", relation.Int))
		ne := 2 + rng.Intn(10)
		for i := 0; i < ne; i++ {
			e.MustAppend(relation.IntVal(int64(i)))
		}
		counts := map[int64]int{}
		for i := rng.Intn(80); i > 0; i-- {
			id := int64(rng.Intn(ne))
			counts[id]++
			f.MustAppend(relation.IntVal(id))
		}
		db.AddRelation(e)
		db.AddRelation(f)
		threshold := 1 + rng.Intn(6)
		q := &Query{
			From:          []string{"e", "f"},
			Joins:         []Join{{LeftRel: "e", LeftCol: "id", RightRel: "f", RightCol: "eid"}},
			Select:        []ColRef{{Rel: "e", Col: "id"}},
			GroupBy:       []ColRef{{Rel: "e", Col: "id"}},
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
			t.Fatalf("trial %d: groups=%d want %d", trial, res.NumRows(), want)
		}
	}
}
