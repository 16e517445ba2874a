// imdb-actors reproduces the motivating scenario of the paper's
// Examples 1.2/1.3 on the synthetic IMDb-like dataset: two example sets
// of actor names carry different implicit intents (funny actors vs
// action stars), invisible to structure-only QBE, and SQuID separates
// them through derived semantic properties (genre association counts).
package main

import (
	"context"
	"fmt"
	"log"

	"squid"
	"squid/internal/datagen"
)

func main() {
	g := datagen.GenerateIMDb(datagen.DefaultIMDbConfig())
	fmt.Printf("generated IMDb-like database: %d relations, %d rows total\n",
		g.DB.NumRelations(), g.DB.TotalRows())

	sys, err := squid.Build(g.DB, squid.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("αDB built in %v\n\n", sys.Stats().BuildTime)

	person := g.DB.Relation("person")
	nameOf := func(id int64) string { return person.Get(int(id), "name").Str() }

	// ET2 analogue: three planted comedians.
	funny := []string{nameOf(g.Comedians[0]), nameOf(g.Comedians[1]), nameOf(g.Comedians[2])}
	// ET1 analogue: three planted action stars.
	strong := []string{nameOf(g.ActionStars[0]), nameOf(g.ActionStars[1]), nameOf(g.ActionStars[2])}

	for _, scenario := range []struct {
		label    string
		examples []string
	}{
		{"funny actors (ET2)", funny},
		{"strong/action actors (ET1)", strong},
	} {
		fmt.Printf("=== examples: %v (%s)\n", scenario.examples, scenario.label)
		disc, err := sys.DiscoverContext(context.Background(), scenario.examples)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("abduced query:")
		fmt.Println(disc.SQL)
		fmt.Printf("filters: ")
		for i, f := range disc.Filters {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Print(f.String())
		}
		fmt.Printf("\nresult size: %d\n\n", len(disc.Output))
	}

	// A structure-only QBE system would answer both example sets with
	// the same generic query (Q3 of the paper):
	fmt.Println("a structure-only QBE system returns for BOTH sets just:")
	fmt.Println("  SELECT person.name FROM person")
}
