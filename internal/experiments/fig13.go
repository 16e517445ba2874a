package experiments

import (
	"context"
	"fmt"
	"io"

	"squid/internal/benchqueries"
	"squid/internal/disambig"
	"squid/internal/metrics"
)

// Fig13Row is one point of Fig 13: case-study accuracy at one
// example-set size, averaged over runs.
type Fig13Row struct {
	Study       string
	NumExamples int
	PRF         metrics.PRF
}

// Fig13 runs the three qualitative case studies of §7.4 — funny actors,
// 2000s Sci-Fi movies, and prolific DB researchers — sampling examples
// from simulated public lists and scoring against the list through the
// popularity mask (Appendix D footnote 14). The paper's signature
// reproduces: precision stays low (lists are biased, the data contains
// matching entities absent from the list), while recall rises quickly
// as the abduced query converges to the intent.
func (s *Suite) Fig13(ctx context.Context) []Fig13Row {
	var rows []Fig13Row
	imdb, imdbAlpha := s.IMDb()
	dblp, dblpAlpha := s.DBLP()

	studies := []struct {
		cs    *benchqueries.CaseStudy
		alpha *alphaDB
	}{
		{benchqueries.FunnyActors(imdb, s.Scale.Seed), imdbAlpha},
		{benchqueries.SciFi2000s(imdb, s.Scale.Seed), imdbAlpha},
		{benchqueries.ProlificResearchers(dblp, s.Scale.Seed), dblpAlpha},
	}
	for _, st := range studies {
		params := defaultParams()
		params.NormalizeAssociation = st.cs.NormalizeAssociation
		for _, n := range s.Scale.ExampleSizes {
			if len(st.cs.List) < n {
				continue
			}
			var prfs []metrics.PRF
			for run := 0; run < s.Scale.Runs; run++ {
				rng := s.sampler("fig13"+st.cs.ID, run)
				examples := metrics.Sample(rng, st.cs.List, n)
				d := runSQuID(ctx, st.alpha, examples, params, disambig.Resolve)
				if d.Err != nil || d.Result == nil {
					prfs = append(prfs, metrics.PRF{})
					continue
				}
				// Score the masked abduced output against the list.
				masked := st.cs.ApplyMask(d.Result.OutputValues())
				prfs = append(prfs, metrics.Compare(masked, st.cs.List))
			}
			rows = append(rows, Fig13Row{
				Study:       st.cs.Name,
				NumExamples: n,
				PRF:         metrics.MeanPRF(prfs),
			})
		}
	}
	return rows
}

// printFig13 renders the Fig 13 series.
func printFig13(w io.Writer, rows []Fig13Row) {
	fmt.Fprintln(w, "Fig 13: case studies (scored against simulated public lists)")
	fmt.Fprintln(w, "study                     #examples  precision  recall  f-score")
	for _, r := range rows {
		fmt.Fprintf(w, "%-25s %9d  %9.3f  %6.3f  %7.3f\n",
			r.Study, r.NumExamples, r.PRF.Precision, r.PRF.Recall, r.PRF.FScore)
	}
}
