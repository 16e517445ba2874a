// adult-census demonstrates the query-reverse-engineering mode of §7.5
// on the synthetic census table: the entire output of a hidden query is
// supplied as the example set, and SQuID (with the optimistic QRE
// parameter preset) reconstructs an instance-equivalent query.
package main

import (
	"context"
	"fmt"
	"log"

	"squid"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/metrics"
)

func main() {
	g := datagen.GenerateAdult(datagen.DefaultAdultConfig())
	fmt.Printf("generated census table: %d rows\n", g.DB.Relation("adult").NumRows())

	sys, err := squid.Build(g.DB, squid.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys.SetParams(squid.QREParams())

	// Pick three of the Fig 22-style benchmark queries as hidden
	// queries.
	ctx := context.Background()
	bench := benchqueries.AdultBenchmarks(ctx, g, 20190625)
	for _, b := range bench[:3] {
		truth, err := benchqueries.GroundTruth(g.DB, b)
		if err != nil {
			log.Fatal(err)
		}
		disc, err := sys.DiscoverContext(ctx, truth) // closed world: full output
		if err != nil {
			log.Fatal(err)
		}
		prf := metrics.Compare(disc.Output, truth)
		joins, sels := disc.PredicateCount()
		fmt.Printf("\n=== hidden query %s (%d output rows, %d predicates)\n",
			b.ID, len(truth), b.Query.TotalPredicates())
		fmt.Printf("reverse-engineered with %d predicates, f-score %.3f:\n", joins+sels, prf.FScore)
		fmt.Println(disc.SQL)
	}
}
