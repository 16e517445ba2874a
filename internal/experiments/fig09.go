package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/disambig"
	"squid/internal/metrics"
)

// Fig9aRow is one point of Fig 9(a): average abduction time at one
// example-set size for one dataset.
type Fig9aRow struct {
	Dataset     string
	NumExamples int
	MeanTime    time.Duration
}

// Fig9a measures average query discovery time against the number of
// examples on the IMDb and DBLP datasets, averaged over the benchmark
// queries — the paper's finding is linear growth in |E|.
func (s *Suite) Fig9a(ctx context.Context) []Fig9aRow {
	var rows []Fig9aRow
	imdb, imdbAlpha := s.IMDb()
	rows = append(rows, s.timeCurve(ctx, "IMDb", imdbAlpha, benchTruths(imdb.DB, benchqueries.IMDbBenchmarks(imdb)))...)
	dblp, dblpAlpha := s.DBLP()
	rows = append(rows, s.timeCurve(ctx, "DBLP", dblpAlpha, benchTruths(dblp.DB, benchqueries.DBLPBenchmarks(dblp)))...)
	return rows
}

// timeCurve averages discovery time over benchmarks and runs for each
// example-set size.
func (s *Suite) timeCurve(ctx context.Context, dataset string, alpha *adb.AlphaDB, bts []benchTruth) []Fig9aRow {
	var rows []Fig9aRow
	params := defaultParams()
	for _, n := range s.Scale.ExampleSizes {
		var times []float64
		for _, bt := range bts {
			if len(bt.Truth) < n {
				continue
			}
			for run := 0; run < s.Scale.Runs; run++ {
				rng := s.sampler(dataset+bt.Bench.ID, run)
				examples := metrics.Sample(rng, bt.Truth, n)
				d := runSQuID(ctx, alpha, examples, params, disambig.Resolve)
				times = append(times, float64(d.Time))
			}
		}
		rows = append(rows, Fig9aRow{
			Dataset:     dataset,
			NumExamples: n,
			MeanTime:    time.Duration(metrics.Mean(times)),
		})
	}
	return rows
}

// PrintFig9a renders the Fig 9(a) series.
func PrintFig9a(w io.Writer, rows []Fig9aRow) {
	fmt.Fprintln(w, "Fig 9(a): abduction time vs #examples")
	fmt.Fprintln(w, "dataset  #examples  mean_time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %9d  %v\n", r.Dataset, r.NumExamples, r.MeanTime.Round(time.Microsecond))
	}
}

// Fig9bRow is one point of Fig 9(b): abduction time on one IMDb size
// variant.
type Fig9bRow struct {
	Variant     string
	DBRows      int
	NumExamples int
	MeanTime    time.Duration
}

// Fig9b measures abduction time across the four IMDb variants of
// Appendix D.1 (sm/base/bs/bd). The paper's findings: time grows with
// dataset size (logarithmically, thanks to index point lookups), and
// bd-IMDb is slower than bs-IMDb because denser associations produce
// more derived properties.
func (s *Suite) Fig9b(ctx context.Context) []Fig9bRow {
	base, _ := s.IMDb()

	smCfg := s.Scale.IMDb
	smCfg.NumPersons /= 4
	smCfg.NumMovies /= 4
	sm := datagen.GenerateIMDb(smCfg)

	variants := []struct {
		name  string
		gen   *datagen.IMDb
		db    *relationDatabase
		alpha *adb.AlphaDB
	}{
		{name: "sm-IMDb", gen: sm, db: sm.DB},
		{name: "IMDb", gen: base, db: base.DB},
		{name: "bs-IMDb", gen: base, db: datagen.BSIMDb(base)},
		{name: "bd-IMDb", gen: base, db: datagen.BDIMDb(base)},
	}
	var rows []Fig9bRow
	for _, v := range variants {
		alpha := mustBuild(v.db)
		bench := benchqueries.IMDbBenchmarks(v.gen)
		bts := benchTruths(v.db, bench)
		for _, point := range s.timeCurve(ctx, v.name, alpha, bts) {
			rows = append(rows, Fig9bRow{
				Variant:     v.name,
				DBRows:      v.db.TotalRows(),
				NumExamples: point.NumExamples,
				MeanTime:    point.MeanTime,
			})
		}
	}
	return rows
}

// printFig9b renders the Fig 9(b) series.
func printFig9b(w io.Writer, rows []Fig9bRow) {
	fmt.Fprintln(w, "Fig 9(b): abduction time vs dataset size (IMDb variants)")
	fmt.Fprintln(w, "variant   db_rows   #examples  mean_time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %8d  %9d  %v\n", r.Variant, r.DBRows, r.NumExamples, r.MeanTime.Round(time.Microsecond))
	}
}
