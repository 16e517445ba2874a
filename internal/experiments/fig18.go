package experiments

import (
	"context"
	"fmt"
	"io"

	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
)

// Fig18 collects the dataset-statistics blocks of Fig 18 for the Adult,
// DBLP, and all four IMDb variants.
func (s *Suite) Fig18() []adb.Stats {
	var out []adb.Stats

	imdb, imdbAlpha := s.IMDb()
	out = append(out, imdbAlpha.ComputeStats())

	smCfg := s.Scale.IMDb
	smCfg.NumPersons /= 4
	smCfg.NumMovies /= 4
	sm := datagen.GenerateIMDb(smCfg)
	smAlpha := mustBuild(sm.DB)
	st := smAlpha.ComputeStats()
	st.Name = "sm-imdb"
	out = append(out, st)

	out = append(out, mustBuild(datagen.BSIMDb(imdb)).ComputeStats())
	out = append(out, mustBuild(datagen.BDIMDb(imdb)).ComputeStats())

	_, dblpAlpha := s.DBLP()
	out = append(out, dblpAlpha.ComputeStats())
	_, adultAlpha := s.Adult()
	out = append(out, adultAlpha.ComputeStats())
	return out
}

// printFig18 renders the dataset statistics.
func printFig18(w io.Writer, stats []adb.Stats) {
	fmt.Fprintln(w, "Fig 18: dataset and αDB statistics")
	for _, st := range stats {
		fmt.Fprintln(w, st.String())
	}
}

// BenchmarkTable is the Figs 19/20/22 inventory: per benchmark, the
// intent, join/selection counts, and result cardinality on the
// generated data.
type BenchmarkTable struct {
	Dataset string
	Rows    []BenchmarkTableRow
}

// BenchmarkTableRow is one inventory line.
type BenchmarkTableRow struct {
	ID          string
	Intent      string
	Joins       int
	Selections  int
	Cardinality int
}

// Fig19 builds the IMDb benchmark inventory.
func (s *Suite) Fig19(ctx context.Context) BenchmarkTable {
	g, _ := s.IMDb()
	return buildTable(ctx, "IMDb (Fig 19)", g.DB, benchqueries.IMDbBenchmarks(g))
}

// Fig20 builds the DBLP benchmark inventory.
func (s *Suite) Fig20(ctx context.Context) BenchmarkTable {
	g, _ := s.DBLP()
	return buildTable(ctx, "DBLP (Fig 20)", g.DB, benchqueries.DBLPBenchmarks(g))
}

// Fig22 builds the Adult benchmark inventory.
func (s *Suite) Fig22(ctx context.Context) BenchmarkTable {
	g, _ := s.Adult()
	return buildTable(ctx, "Adult (Fig 22)", g.DB, benchqueries.AdultBenchmarks(ctx, g, s.Scale.Seed))
}

func buildTable(ctx context.Context, name string, db *relationDatabase, bench []benchqueries.Benchmark) BenchmarkTable {
	t := BenchmarkTable{Dataset: name}
	for _, b := range bench {
		card, err := benchqueries.Cardinality(ctx, db, b)
		if err != nil {
			card = -1
		}
		t.Rows = append(t.Rows, BenchmarkTableRow{
			ID:          b.ID,
			Intent:      b.Intent,
			Joins:       b.NumJoinRels,
			Selections:  b.NumSelections,
			Cardinality: card,
		})
	}
	return t
}

// PrintBenchmarkTable renders a Figs 19/20/22-style inventory.
func PrintBenchmarkTable(w io.Writer, t BenchmarkTable) {
	fmt.Fprintf(w, "%s benchmark queries\n", t.Dataset)
	fmt.Fprintln(w, "id     J  S  #result  intent")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-6s %d  %d  %7d  %s\n", r.ID, r.Joins, r.Selections, r.Cardinality, r.Intent)
	}
}
