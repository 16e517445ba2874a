// dblp-researchers runs the prolific-database-researcher case study of
// §7.4 on the synthetic DBLP-like dataset: examples are names drawn from
// a simulated public list of heavy SIGMOD/VLDB publishers, and SQuID
// abduces a query over the derived publication-count properties.
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
	g := datagen.GenerateDBLP(datagen.DefaultDBLPConfig())
	fmt.Printf("generated DBLP-like database: %d relations, %d rows total\n",
		g.DB.NumRelations(), g.DB.TotalRows())

	sys, err := squid.Build(g.DB, squid.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}

	study := benchqueries.ProlificResearchers(g, 2019)
	fmt.Printf("simulated public list %q holds %d names\n\n", study.Name, len(study.List))

	// Feed SQuID increasing slices of the list and watch recall climb
	// (the Fig 13(c) trend).
	for _, n := range []int{5, 10, 20} {
		if len(study.List) < n {
			break
		}
		examples := study.List[:n]
		disc, err := sys.DiscoverContext(context.Background(), examples)
		if err != nil {
			log.Fatal(err)
		}
		masked := study.ApplyMask(disc.Output)
		prf := metrics.Compare(masked, study.List)
		fmt.Printf("|E|=%2d  filters=%d  precision=%.2f recall=%.2f f=%.2f\n",
			n, len(disc.Filters), prf.Precision, prf.Recall, prf.FScore)
		if n == 20 {
			fmt.Println("\nabduced query at |E|=20:")
			fmt.Println(disc.SQL)
		}
	}
}
