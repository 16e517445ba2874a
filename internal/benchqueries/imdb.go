// Package benchqueries defines the 41 benchmark queries of the paper's
// evaluation — 16 over the IMDb-like database (Fig 19), 5 over the
// DBLP-like database (Fig 20), and 20 over the Adult census table
// (Fig 22) — together with the three case studies of §7.4. Every query
// carries its ground-truth logical plan; the experiment harness executes
// the plan to obtain the intended output, samples examples from it, and
// scores the abduced query against it.
package benchqueries

import (
	"context"
	"fmt"

	"squid/internal/datagen"
	"squid/internal/engine"
	"squid/internal/relation"
)

// Benchmark is one benchmark query: the intent description, the
// ground-truth plan, and paper-facing metadata (Figs 19/20/22 columns).
type Benchmark struct {
	ID     string
	Intent string
	// Query is the ground-truth logical plan over the original schema.
	Query *engine.Query
	// NumJoinRels and NumSelections are the J and S columns of the
	// figures (joining relations and selection predicates of the
	// intended SQL).
	NumJoinRels   int
	NumSelections int
}

// sv and iv shorten literal construction.
func sv(s string) relation.Value { return relation.StringVal(s) }
func iv(i int64) relation.Value  { return relation.IntVal(i) }

// personProject is the standard projection for person-entity queries.
func personProject() []engine.ColRef { return []engine.ColRef{{Rel: "person", Col: "name"}} }

func movieProject() []engine.ColRef { return []engine.ColRef{{Rel: "movie", Col: "title"}} }

// castOf builds the "cast of movie T" block: person ⋈ castinfo ⋈ movie,
// title = T, role = Actor.
func castOf(title string) *engine.Query {
	return &engine.Query{
		From: []string{"person", "castinfo", "movie"},
		Joins: []engine.Join{
			{LeftRel: "person", LeftCol: "id", RightRel: "castinfo", RightCol: "person_id"},
			{LeftRel: "castinfo", LeftCol: "movie_id", RightRel: "movie", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "movie", Col: "title", Op: engine.OpEq, Val: sv(title)},
		},
		Select:   personProject(),
		Distinct: true,
	}
}

// IMDbBenchmarks builds IQ1–IQ16 against the planted structures of g.
func IMDbBenchmarks(g *datagen.IMDb) []Benchmark {
	var out []Benchmark
	add := func(id, intent string, j, s int, q *engine.Query) {
		out = append(out, Benchmark{ID: id, Intent: intent, Query: q, NumJoinRels: j, NumSelections: s})
	}

	// IQ1: entire cast of the planted blockbuster.
	add("IQ1", "Entire cast of "+g.BlockbusterTitle, 3, 1, castOf(g.BlockbusterTitle))

	// IQ2: actors who appeared in all parts of the trilogy.
	iq2 := castOf(g.TrilogyTitles[0])
	iq2.Intersect = []*engine.Query{castOf(g.TrilogyTitles[1]), castOf(g.TrilogyTitles[2])}
	add("IQ2", "Actors appearing in the whole trilogy", 8, 3, iq2)

	// IQ3: Canadian actresses born after 1970 (with at least one acting
	// credit — the part SQuID is expected to miss, §7.3).
	add("IQ3", "Canadian actresses born after 1970", 3, 4, &engine.Query{
		From: []string{"person", "country", "castinfo", "role"},
		Joins: []engine.Join{
			{LeftRel: "person", LeftCol: "country_id", RightRel: "country", RightCol: "id"},
			{LeftRel: "person", LeftCol: "id", RightRel: "castinfo", RightCol: "person_id"},
			{LeftRel: "castinfo", LeftCol: "role_id", RightRel: "role", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "country", Col: "name", Op: engine.OpEq, Val: sv("Canada")},
			{Rel: "person", Col: "gender", Op: engine.OpEq, Val: sv("Female")},
			{Rel: "person", Col: "birth_year", Op: engine.OpGE, Val: iv(1970)},
			{Rel: "role", Col: "name", Op: engine.OpEq, Val: sv("Actor")},
		},
		Select:   personProject(),
		Distinct: true,
	})

	// IQ4: Sci-Fi movies released in USA in 2016.
	add("IQ4", "Sci-Fi movies released in USA in 2016", 5, 3, &engine.Query{
		From: []string{"movie", "movietogenre", "genre", "movietocountry", "country"},
		Joins: []engine.Join{
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietogenre", RightCol: "movie_id"},
			{LeftRel: "movietogenre", LeftCol: "genre_id", RightRel: "genre", RightCol: "id"},
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietocountry", RightCol: "movie_id"},
			{LeftRel: "movietocountry", LeftCol: "country_id", RightRel: "country", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "genre", Col: "name", Op: engine.OpEq, Val: sv("SciFi")},
			{Rel: "country", Col: "name", Op: engine.OpEq, Val: sv("USA")},
			{Rel: "movie", Col: "year", Op: engine.OpEq, Val: iv(2016)},
		},
		Select:   movieProject(),
		Distinct: true,
	})

	// IQ5: movies in which the planted duo co-star.
	castMovie := func(personID int64) *engine.Query {
		return &engine.Query{
			From: []string{"movie", "castinfo", "person"},
			Joins: []engine.Join{
				{LeftRel: "movie", LeftCol: "id", RightRel: "castinfo", RightCol: "movie_id"},
				{LeftRel: "castinfo", LeftCol: "person_id", RightRel: "person", RightCol: "id"},
			},
			Preds: []engine.Pred{
				{Rel: "person", Col: "id", Op: engine.OpEq, Val: iv(personID)},
			},
			Select:   movieProject(),
			Distinct: true,
		}
	}
	iq5 := castMovie(g.DuoA)
	iq5.Intersect = []*engine.Query{castMovie(g.DuoB)}
	add("IQ5", "Movies the planted duo acted in together", 5, 2, iq5)

	// IQ6: movies directed by the planted director.
	add("IQ6", "Movies directed by "+g.DirectorName, 4, 2, &engine.Query{
		From: []string{"movie", "castinfo", "person", "role"},
		Joins: []engine.Join{
			{LeftRel: "movie", LeftCol: "id", RightRel: "castinfo", RightCol: "movie_id"},
			{LeftRel: "castinfo", LeftCol: "person_id", RightRel: "person", RightCol: "id"},
			{LeftRel: "castinfo", LeftCol: "role_id", RightRel: "role", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "person", Col: "id", Op: engine.OpEq, Val: iv(g.DirectorID)},
			{Rel: "role", Col: "name", Op: engine.OpEq, Val: sv("Director")},
		},
		Select:   movieProject(),
		Distinct: true,
	})

	// IQ7: all movie genres (PJ query, no selection).
	add("IQ7", "All movie genres", 1, 0, &engine.Query{
		From:     []string{"genre"},
		Select:   []engine.ColRef{{Rel: "genre", Col: "name"}},
		Distinct: true,
	})

	// IQ8: movies by a planted prolific actor (the first comedian).
	star := g.Comedians[0]
	add("IQ8", "Movies of a prolific actor", 4, 2, castMovie(star))

	// IQ9: Indian actors with at least 15 USA movies (aggregation).
	add("IQ9", "Indian actors in at least 15 USA movies", 6, 4, &engine.Query{
		From: []string{"person", "country", "castinfo", "movietocountry"},
		Joins: []engine.Join{
			{LeftRel: "person", LeftCol: "country_id", RightRel: "country", RightCol: "id"},
			{LeftRel: "person", LeftCol: "id", RightRel: "castinfo", RightCol: "person_id"},
			{LeftRel: "castinfo", LeftCol: "movie_id", RightRel: "movietocountry", RightCol: "movie_id"},
		},
		Preds: []engine.Pred{
			{Rel: "country", Col: "name", Op: engine.OpEq, Val: sv("India")},
			{Rel: "movietocountry", Col: "country_id", Op: engine.OpEq, Val: iv(0)}, // USA is country id 0
		},
		Select:        personProject(),
		Distinct:      true,
		GroupBy:       []engine.ColRef{{Rel: "person", Col: "id"}},
		HavingCountGE: 15,
	})

	// IQ10: actors in more than 10 Russian movies after 2010 — the
	// compound-derived query outside SQuID's search space (§7.3).
	add("IQ10", "Actors in >10 Russian movies released after 2010", 6, 4, &engine.Query{
		From: []string{"person", "castinfo", "movie", "movietocountry", "country"},
		Joins: []engine.Join{
			{LeftRel: "person", LeftCol: "id", RightRel: "castinfo", RightCol: "person_id"},
			{LeftRel: "castinfo", LeftCol: "movie_id", RightRel: "movie", RightCol: "id"},
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietocountry", RightCol: "movie_id"},
			{LeftRel: "movietocountry", LeftCol: "country_id", RightRel: "country", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "country", Col: "name", Op: engine.OpEq, Val: sv("Russia")},
			{Rel: "movie", Col: "year", Op: engine.OpGE, Val: iv(2011)},
		},
		Select:        personProject(),
		Distinct:      true,
		GroupBy:       []engine.ColRef{{Rel: "person", Col: "id"}},
		HavingCountGE: 3, // scaled-down analogue of the paper's >10
	})

	// IQ11: USA Horror-Drama movies in 2005-2008.
	iq11a := &engine.Query{
		From: []string{"movie", "movietogenre", "genre", "movietocountry", "country"},
		Joins: []engine.Join{
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietogenre", RightCol: "movie_id"},
			{LeftRel: "movietogenre", LeftCol: "genre_id", RightRel: "genre", RightCol: "id"},
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietocountry", RightCol: "movie_id"},
			{LeftRel: "movietocountry", LeftCol: "country_id", RightRel: "country", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "genre", Col: "name", Op: engine.OpEq, Val: sv("Horror")},
			{Rel: "country", Col: "name", Op: engine.OpEq, Val: sv("USA")},
			{Rel: "movie", Col: "year", Op: engine.OpGE, Val: iv(2005)},
			{Rel: "movie", Col: "year", Op: engine.OpLE, Val: iv(2008)},
		},
		Select:   movieProject(),
		Distinct: true,
	}
	iq11b := iq11a.Clone()
	iq11b.Preds[0].Val = sv("Drama")
	iq11 := iq11a.Clone()
	iq11.Intersect = []*engine.Query{iq11b}
	add("IQ11", "USA Horror-Drama movies 2005-2008", 7, 5, iq11)

	// IQ12: movies produced by the planted company.
	add("IQ12", "Movies produced by "+g.ProducerCompany, 3, 1, &engine.Query{
		From: []string{"movie", "movietocompany", "company"},
		Joins: []engine.Join{
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietocompany", RightCol: "movie_id"},
			{LeftRel: "movietocompany", LeftCol: "company_id", RightRel: "company", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "company", Col: "name", Op: engine.OpEq, Val: sv(g.ProducerCompany)},
		},
		Select:   movieProject(),
		Distinct: true,
	})

	// IQ13: Animation movies produced by the planted company.
	add("IQ13", "Animation movies by "+g.ProducerCompany, 5, 2, &engine.Query{
		From: []string{"movie", "movietocompany", "company", "movietogenre", "genre"},
		Joins: []engine.Join{
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietocompany", RightCol: "movie_id"},
			{LeftRel: "movietocompany", LeftCol: "company_id", RightRel: "company", RightCol: "id"},
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietogenre", RightCol: "movie_id"},
			{LeftRel: "movietogenre", LeftCol: "genre_id", RightRel: "genre", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "company", Col: "name", Op: engine.OpEq, Val: sv(g.ProducerCompany)},
			{Rel: "genre", Col: "name", Op: engine.OpEq, Val: sv("Animation")},
		},
		Select:   movieProject(),
		Distinct: true,
	})

	// IQ14: Sci-Fi movies of a planted star (action star in Sci-Fi).
	add("IQ14", "Sci-Fi movies of a planted star", 6, 3, &engine.Query{
		From: []string{"movie", "castinfo", "person", "movietogenre", "genre"},
		Joins: []engine.Join{
			{LeftRel: "movie", LeftCol: "id", RightRel: "castinfo", RightCol: "movie_id"},
			{LeftRel: "castinfo", LeftCol: "person_id", RightRel: "person", RightCol: "id"},
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietogenre", RightCol: "movie_id"},
			{LeftRel: "movietogenre", LeftCol: "genre_id", RightRel: "genre", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "person", Col: "id", Op: engine.OpEq, Val: iv(star)},
			{Rel: "genre", Col: "name", Op: engine.OpEq, Val: sv("Comedy")},
		},
		Select:   movieProject(),
		Distinct: true,
	})

	// IQ15: Japanese Animation movies.
	add("IQ15", "Japanese Animation movies", 5, 2, &engine.Query{
		From: []string{"movie", "movietogenre", "genre", "movietocountry", "country"},
		Joins: []engine.Join{
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietogenre", RightCol: "movie_id"},
			{LeftRel: "movietogenre", LeftCol: "genre_id", RightRel: "genre", RightCol: "id"},
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietocountry", RightCol: "movie_id"},
			{LeftRel: "movietocountry", LeftCol: "country_id", RightRel: "country", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "genre", Col: "name", Op: engine.OpEq, Val: sv("Animation")},
			{Rel: "country", Col: "name", Op: engine.OpEq, Val: sv("Japan")},
		},
		Select:   movieProject(),
		Distinct: true,
	})

	// IQ16: planted-company movies with more than 5 USA cast members
	// (scaled-down analogue of the paper's 15).
	add("IQ16", g.ProducerCompany+" movies with >5 American cast", 5, 3, &engine.Query{
		From: []string{"movie", "movietocompany", "company", "castinfo", "person"},
		Joins: []engine.Join{
			{LeftRel: "movie", LeftCol: "id", RightRel: "movietocompany", RightCol: "movie_id"},
			{LeftRel: "movietocompany", LeftCol: "company_id", RightRel: "company", RightCol: "id"},
			{LeftRel: "movie", LeftCol: "id", RightRel: "castinfo", RightCol: "movie_id"},
			{LeftRel: "castinfo", LeftCol: "person_id", RightRel: "person", RightCol: "id"},
		},
		Preds: []engine.Pred{
			{Rel: "company", Col: "name", Op: engine.OpEq, Val: sv(g.ProducerCompany)},
			{Rel: "person", Col: "country_id", Op: engine.OpEq, Val: iv(0)}, // USA
		},
		Select:        movieProject(),
		Distinct:      true,
		GroupBy:       []engine.ColRef{{Rel: "movie", Col: "id"}},
		HavingCountGE: 6,
	})

	return out
}

// Cardinality executes the benchmark's ground-truth query and returns
// its output size (the "#Result" column of Figs 19/20/22).
func Cardinality(ctx context.Context, db *relation.Database, b Benchmark) (int, error) {
	res, err := engine.NewExecutor(db).ExecuteCtx(ctx, b.Query)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", b.ID, err)
	}
	return res.NumRows(), nil
}

// GroundTruth executes the benchmark's query and returns the projected
// output values.
func GroundTruth(db *relation.Database, b Benchmark) ([]string, error) {
	//lint:ignore ctxpoll the benchmark of record (benchmark/input.go) compiles against this two-argument form
	res, err := engine.NewExecutor(db).ExecuteCtx(context.TODO(), b.Query)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.ID, err)
	}
	return res.Strings(), nil
}
