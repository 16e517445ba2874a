// Quickstart walks through the paper's Fig 1 scenario with the public
// API: build the CS-Academics database, make it abduction-ready, and
// discover the intent behind the examples {Dan Suciu, Sam Madden} — the
// data-management researchers of Example 1.1.
package main

import (
	"context"
	"fmt"
	"log"

	"squid"
)

func main() {
	// 1. Describe the database: an entity relation (academics) and an
	// attribute table (research) holding multi-valued interests.
	db := squid.NewDatabase("cs_academics")

	academics := squid.NewRelation("academics",
		squid.Col("id", squid.Int),
		squid.Col("name", squid.String),
	).SetPrimaryKey("id")
	names := []string{
		"Thomas Cormen", "Dan Suciu", "Jiawei Han",
		"Sam Madden", "James Kurose", "Joseph Hellerstein",
	}
	for i, n := range names {
		academics.MustAppend(squid.IntVal(int64(100+i)), squid.StringVal(n))
	}
	db.AddRelation(academics)
	db.MarkEntity("academics")

	research := squid.NewRelation("research",
		squid.Col("aid", squid.Int),
		squid.Col("interest", squid.String),
	).AddForeignKey("aid", "academics", "id")
	interests := []struct {
		aid      int64
		interest string
	}{
		{100, "algorithms"}, {101, "data management"}, {102, "data mining"},
		{103, "data management"}, {103, "distributed systems"},
		{104, "computer networks"}, {105, "data management"}, {105, "distributed systems"},
	}
	for _, r := range interests {
		research.MustAppend(squid.IntVal(r.aid), squid.StringVal(r.interest))
	}
	db.AddRelation(research)

	// 2. Offline phase: build the abduction-ready database.
	sys, err := squid.Build(db, squid.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}

	// 3. Online phase: discover the intent behind three examples. With
	// ρ=0.2 the shared data-management interest outweighs coincidence
	// already at |E| = 3.
	params := squid.DefaultParams()
	params.Rho = 0.2
	sys.SetParams(params)

	examples := []string{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"}
	disc, err := sys.DiscoverContext(context.Background(), examples)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("examples:", examples)
	fmt.Println()
	fmt.Println("abduced query:")
	fmt.Println(disc.SQL)
	fmt.Println()
	fmt.Println("filter decisions:")
	for _, d := range disc.Decisions {
		verdict := "dropped (coincidental)"
		if d.Included {
			verdict = "included (intended)"
		}
		fmt.Printf("  %-45s ψ=%.3f -> %s\n", d.Filter.String(), d.Selectivity, verdict)
	}
	fmt.Println()
	fmt.Println("result:", disc.Output)
}
