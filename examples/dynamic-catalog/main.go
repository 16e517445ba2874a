// dynamic-catalog demonstrates the two §9 extensions implemented beyond
// the paper's core: incremental αDB maintenance on a growing catalog
// (new entities and facts arrive after the offline build) and example
// recommendation (the system suggests which entity the user should
// confirm next to sharpen the abduction).
package main

import (
	"context"
	"fmt"
	"log"

	"squid"
)

func main() {
	// A small streaming-catalog schema: shows and a tag attribute table.
	db := squid.NewDatabase("catalog")
	show := squid.NewRelation("show",
		squid.Col("id", squid.Int),
		squid.Col("title", squid.String),
		squid.Col("year", squid.Int),
	).SetPrimaryKey("id")
	tags := squid.NewRelation("tags",
		squid.Col("show_id", squid.Int),
		squid.Col("tag", squid.String),
	).AddForeignKey("show_id", "show", "id")

	type seed struct {
		title string
		year  int64
		tags  []string
	}
	seeds := []seed{
		{"Northern Lights", 2015, []string{"crime", "nordic"}},
		{"Harbor Town", 2017, []string{"crime", "nordic"}},
		{"Glass Fjord", 2019, []string{"crime", "nordic", "thriller"}},
		{"Sunset Valley", 2016, []string{"romance"}},
		{"Laugh Track", 2018, []string{"comedy"}},
		{"Quiet Streets", 2020, []string{"crime"}},
		{"Desert Rose", 2014, []string{"romance", "drama"}},
		{"Byte Sized", 2021, []string{"comedy", "tech"}},
	}
	for i, s := range seeds {
		show.MustAppend(squid.IntVal(int64(i)), squid.StringVal(s.title), squid.IntVal(s.year))
		for _, tg := range s.tags {
			tags.MustAppend(squid.IntVal(int64(i)), squid.StringVal(tg))
		}
	}
	db.AddRelation(show)
	db.AddRelation(tags)
	db.MarkEntity("show")

	sys, err := squid.Build(db, squid.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}
	params := squid.DefaultParams()
	params.Rho = 0.25
	sys.SetParams(params)
	ctx := context.Background()

	// 1. Discover the nordic-crime intent from two examples spanning the
	// year range, so a third matching show remains in the output.
	disc, err := sys.DiscoverContext(ctx, []string{"Northern Lights", "Glass Fjord"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("initial discovery:")
	fmt.Println(disc.SQL)
	fmt.Println("output:", disc.Output)

	// 2. Ask the system what to confirm next.
	recs := disc.RecommendExamples(2)
	fmt.Println("\nsuggested next examples:", recs)

	// 3. The catalog grows — no rebuild needed: the show and its tags
	// arrive as one batch, published as one epoch.
	newShow := []squid.InsertOp{{Rel: "show", Vals: []squid.Value{
		squid.IntVal(100), squid.StringVal("Frozen Coast"), squid.IntVal(2018)}}}
	for _, tg := range []string{"crime", "nordic"} {
		newShow = append(newShow, squid.InsertOp{Rel: "tags", Vals: []squid.Value{squid.IntVal(100), squid.StringVal(tg)}})
	}
	if err := sys.InsertBatchContext(ctx, newShow); err != nil {
		log.Fatal(err)
	}

	// 4. The same intent now includes the freshly inserted show.
	disc2, err := sys.DiscoverContext(ctx, []string{"Northern Lights", "Glass Fjord"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter inserting Frozen Coast (no αDB rebuild):")
	fmt.Println(disc2.SQL)
	fmt.Println("output:", disc2.Output)
}
