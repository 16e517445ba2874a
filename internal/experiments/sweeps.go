package experiments

import (
	"context"
	"fmt"
	"io"

	"squid/internal/abduction"
	"squid/internal/benchqueries"
	"squid/internal/disambig"
	"squid/internal/metrics"
)

// SweepRow is one point of the Appendix E parameter sweeps (Figs
// 23–26): f-score of one benchmark at one parameter setting and
// example-set size.
type SweepRow struct {
	Parameter   string
	Setting     string
	QueryID     string
	NumExamples int
	FScore      float64
}

// sweepQueries returns the IMDb benchmarks used by the ρ and γ sweeps
// (IQ2, IQ3, IQ4, IQ11, IQ16 in the paper).
func (s *Suite) sweepTruths(ids ...string) []benchTruth {
	g, _ := s.IMDb()
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var out []benchTruth
	for _, bt := range benchTruths(g.DB, benchqueries.IMDbBenchmarks(g)) {
		if want[bt.Bench.ID] {
			out = append(out, bt)
		}
	}
	return out
}

// runSweep scores one parameter configuration across queries and sizes.
func (s *Suite) runSweep(ctx context.Context, param, setting string, bts []benchTruth, params abduction.Params) []SweepRow {
	_, alpha := s.IMDb()
	var rows []SweepRow
	for _, bt := range bts {
		for _, n := range s.Scale.ExampleSizes {
			if len(bt.Truth) < n {
				continue
			}
			var fs []float64
			for run := 0; run < s.Scale.Runs; run++ {
				rng := s.sampler("sweep"+param+setting+bt.Bench.ID, run)
				examples := metrics.Sample(rng, bt.Truth, n)
				d := runSQuID(ctx, alpha, examples, params, disambig.Resolve)
				fs = append(fs, scoreAgainst(d, bt.Truth).FScore)
			}
			rows = append(rows, SweepRow{
				Parameter:   param,
				Setting:     setting,
				QueryID:     bt.Bench.ID,
				NumExamples: n,
				FScore:      metrics.Mean(fs),
			})
		}
	}
	return rows
}

// Fig23 sweeps the base filter prior ρ ∈ {0.5, 0.1, 0.01} over IQ2,
// IQ3, IQ4, IQ11, IQ16 — low ρ favors recall, high ρ precision; the
// moderate default wins on average (Appendix E).
func (s *Suite) Fig23(ctx context.Context) []SweepRow {
	bts := s.sweepTruths("IQ2", "IQ3", "IQ4", "IQ11", "IQ16")
	var rows []SweepRow
	for _, rho := range []float64{0.5, 0.1, 0.01} {
		p := abduction.DefaultParams()
		p.Rho = rho
		rows = append(rows, s.runSweep(ctx, "rho", fmt.Sprintf("%.2f", rho), bts, p)...)
	}
	return rows
}

// Fig24 sweeps the domain-coverage penalty γ ∈ {10, 5, 2, 0}.
func (s *Suite) Fig24(ctx context.Context) []SweepRow {
	bts := s.sweepTruths("IQ2", "IQ3", "IQ4", "IQ11", "IQ16")
	var rows []SweepRow
	for _, gamma := range []float64{10, 5, 2, 0} {
		p := abduction.DefaultParams()
		p.Gamma = gamma
		rows = append(rows, s.runSweep(ctx, "gamma", fmt.Sprintf("%g", gamma), bts, p)...)
	}
	return rows
}

// Fig25 sweeps the association-strength threshold τa ∈ {0, 5} on IQ5:
// with few examples a high τa drops weakly-associated coincidental
// filters.
func (s *Suite) Fig25(ctx context.Context) []SweepRow {
	bts := s.sweepTruths("IQ5")
	var rows []SweepRow
	for _, tauA := range []int{0, 5} {
		p := abduction.DefaultParams()
		p.TauA = tauA
		rows = append(rows, s.runSweep(ctx, "tauA", fmt.Sprintf("%d", tauA), bts, p)...)
	}
	return rows
}

// Fig26 sweeps the skewness threshold τs ∈ {N/A, 0, 2, 4} on IQ1: the
// outlier impact λ prunes unintended derived filters (the certificate
// family in the paper's account).
func (s *Suite) Fig26(ctx context.Context) []SweepRow {
	bts := s.sweepTruths("IQ1")
	var rows []SweepRow
	settings := []struct {
		name    string
		tauS    float64
		disable bool
	}{
		{"N/A", 0, true},
		{"0", 0, false},
		{"2", 2, false},
		{"4", 4, false},
	}
	for _, st := range settings {
		p := abduction.DefaultParams()
		p.TauS = st.tauS
		p.DisableOutlier = st.disable
		rows = append(rows, s.runSweep(ctx, "tauS", st.name, bts, p)...)
	}
	return rows
}

// printSweep renders a Figs 23–26-style sweep.
func printSweep(w io.Writer, title string, rows []SweepRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, "param  setting  query  #examples  f-score")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-8s %-6s %9d  %7.3f\n", r.Parameter, r.Setting, r.QueryID, r.NumExamples, r.FScore)
	}
}
