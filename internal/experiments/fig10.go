package experiments

import (
	"context"
	"fmt"
	"io"

	"squid/internal/benchqueries"
	"squid/internal/disambig"
	"squid/internal/metrics"
)

// defaultParams returns the Fig 21 defaults used across experiments.
func defaultParams() abductionParams { return abdDefaultParams() }

// Fig10Row is one point of Fig 10: accuracy of the abduced query for
// one benchmark at one example-set size, averaged over runs.
type Fig10Row struct {
	Dataset     string
	QueryID     string
	NumExamples int
	PRF         metrics.PRF
}

// Fig10 measures precision, recall, and f-score against the number of
// examples for every IMDb and DBLP benchmark query, sampling examples
// from the ground-truth output (10 runs in the paper; Scale.Runs here).
func (s *Suite) Fig10(ctx context.Context) []Fig10Row {
	var rows []Fig10Row
	imdb, imdbAlpha := s.IMDb()
	rows = append(rows, s.accuracyCurves(ctx, "IMDb", imdbAlpha, benchTruths(imdb.DB, benchqueries.IMDbBenchmarks(imdb)))...)
	dblp, dblpAlpha := s.DBLP()
	rows = append(rows, s.accuracyCurves(ctx, "DBLP", dblpAlpha, benchTruths(dblp.DB, benchqueries.DBLPBenchmarks(dblp)))...)
	return rows
}

func (s *Suite) accuracyCurves(ctx context.Context, dataset string, alpha *alphaDB, bts []benchTruth) []Fig10Row {
	var rows []Fig10Row
	params := defaultParams()
	for _, bt := range bts {
		for _, n := range s.Scale.ExampleSizes {
			if len(bt.Truth) < n {
				continue
			}
			var prfs []metrics.PRF
			for run := 0; run < s.Scale.Runs; run++ {
				rng := s.sampler("fig10"+dataset+bt.Bench.ID, run)
				examples := metrics.Sample(rng, bt.Truth, n)
				d := runSQuID(ctx, alpha, examples, params, disambig.Resolve)
				prfs = append(prfs, scoreAgainst(d, bt.Truth))
			}
			rows = append(rows, Fig10Row{
				Dataset:     dataset,
				QueryID:     bt.Bench.ID,
				NumExamples: n,
				PRF:         metrics.MeanPRF(prfs),
			})
		}
	}
	return rows
}

// printFig10 renders the Fig 10 series.
func printFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintln(w, "Fig 10: precision/recall/f-score vs #examples")
	fmt.Fprintln(w, "dataset  query  #examples  precision  recall  f-score")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-6s %9d  %9.3f  %6.3f  %7.3f\n",
			r.Dataset, r.QueryID, r.NumExamples, r.PRF.Precision, r.PRF.Recall, r.PRF.FScore)
	}
}
