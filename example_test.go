package squid_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"squid"
)

// Example reproduces the paper's Fig 1 walk-through: discovering the
// data-management intent behind two researcher names.
func Example() {
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

	sys, err := squid.Build(db, squid.DefaultBuildConfig())
	if err != nil {
		log.Fatal(err)
	}
	params := squid.DefaultParams()
	params.Rho = 0.2
	sys.SetParams(params)

	disc, err := sys.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(disc.SQL)
	fmt.Println(strings.Join(disc.Output, ", "))
	// Output:
	// SELECT academics.name
	// FROM academics, research
	// WHERE academics.id = research.aid
	//   AND research.interest = 'data management'
	// Dan Suciu, Joseph Hellerstein, Sam Madden
}

// ExampleLoadCSV shows loading a relation from CSV data.
func ExampleLoadCSV() {
	csvData := "id,name,dept\n1,Ada,EECS\n2,Grace,Math\n"
	rel, err := squid.LoadCSV("people", strings.NewReader(csvData), []squid.CSVColumn{
		{Name: "id", Type: squid.Int},
		{Name: "name", Type: squid.String},
		{Name: "dept", Type: squid.String},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rel.NumRows(), rel.Get(1, "name"))
	// Output: 2 Grace
}
