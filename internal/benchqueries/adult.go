package benchqueries

import (
	"context"
	"fmt"
	"math/rand"

	"squid/internal/datagen"
	"squid/internal/engine"
	"squid/internal/relation"
)

// AdultBenchmarks builds 20 randomized benchmark queries over the census
// table, mirroring Fig 22: each query combines 2-7 selection predicates
// over randomly chosen attributes, with equality predicates on
// categorical attributes and narrow ranges on numeric ones. Values are
// drawn from the generated data so every query is satisfiable. Queries
// with empty results are re-drawn.
func AdultBenchmarks(ctx context.Context, g *datagen.Adult, seed int64) []Benchmark {
	rng := rand.New(rand.NewSource(seed))
	adult := g.DB.Relation("adult")
	exec := engine.NewExecutor(g.DB)

	categorical := []string{
		"workclass", "education", "maritalstatus", "occupation",
		"relationship", "race", "sex", "nativecountry", "income",
	}
	numeric := []string{"age", "fnlwgt", "capitalgain", "capitalloss", "hoursperweek"}

	var out []Benchmark
	for len(out) < 20 {
		numPreds := 2 + rng.Intn(6) // 2-7 predicates
		attrs := rng.Perm(len(categorical) + len(numeric))[:numPreds]
		// Anchor the value draws on a random seed row so conjunctions
		// are satisfiable.
		seedRow := rng.Intn(adult.NumRows())
		q := &engine.Query{
			From:     []string{"adult"},
			Select:   []engine.ColRef{{Rel: "adult", Col: "name"}},
			Distinct: true,
		}
		for _, ai := range attrs {
			if ai < len(categorical) {
				col := categorical[ai]
				q.Preds = append(q.Preds, engine.Pred{
					Rel: "adult", Col: col, Op: engine.OpEq,
					Val: adult.Get(seedRow, col),
				})
			} else {
				col := numeric[ai-len(categorical)]
				center := adult.Get(seedRow, col).Int()
				span := numericSpan(col)
				q.Preds = append(q.Preds,
					engine.Pred{Rel: "adult", Col: col, Op: engine.OpGE, Val: relation.IntVal(center - span)},
					engine.Pred{Rel: "adult", Col: col, Op: engine.OpLE, Val: relation.IntVal(center + span)},
				)
			}
		}
		res, err := exec.ExecuteCtx(ctx, q)
		if err != nil || res.NumRows() < 5 {
			continue // re-draw: too selective to sample examples from
		}
		id := fmt.Sprintf("AQ%d", len(out)+1)
		out = append(out, Benchmark{
			ID:            id,
			Intent:        fmt.Sprintf("Census query with %d predicates", numPreds),
			Query:         q,
			NumJoinRels:   1,
			NumSelections: len(q.Preds),
		})
	}
	return out
}

// numericSpan returns the half-width of the range predicate per numeric
// attribute, matching the narrow ranges of Fig 22.
func numericSpan(col string) int64 {
	switch col {
	case "age":
		return 4
	case "fnlwgt":
		return 40000
	case "capitalgain":
		return 1500
	case "capitalloss":
		return 200
	case "hoursperweek":
		return 4
	default:
		return 1
	}
}
