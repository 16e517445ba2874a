package experiments

import (
	"context"
	"fmt"
	"io"

	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/disambig"
	"squid/internal/metrics"
)

// AblationRow is one point of an ablation study: mean f-score of a
// configuration over the affected benchmark queries.
type AblationRow struct {
	Ablation string
	Setting  string
	QueryID  string
	FScore   float64
}

// AblationDepth compares derived-property discovery depth 1 vs 2 (the
// §5 "derived property discovery up to a pre-defined depth" knob, and
// the §9 "techniques for adjusting the depth of association discovery"
// direction). Queries whose intent lives behind a two-fact-table path
// (funny actors: person→castinfo→movie→movietogenre→genre) collapse at
// depth 1; shallow intents are unaffected.
func (s *Suite) AblationDepth(ctx context.Context) []AblationRow {
	g, _ := s.IMDb()
	var rows []AblationRow
	n := 10
	person := g.DB.Relation("person")
	var comedianNames []string
	for _, id := range g.Comedians {
		comedianNames = append(comedianNames, person.Get(int(id), "name").Str())
	}

	for _, depth := range []int{1, 2} {
		cfg := adb.DefaultConfig()
		cfg.MaxFactDepth = depth
		alpha, err := adb.Build(g.DB, cfg)
		if err != nil {
			panic(err)
		}
		params := defaultParams()
		params.NormalizeAssociation = true
		var fs []float64
		for run := 0; run < s.Scale.Runs; run++ {
			rng := s.sampler("abl-depth", run)
			examples := metrics.Sample(rng, comedianNames, n)
			d := runSQuID(ctx, alpha, examples, params, disambig.Resolve)
			fs = append(fs, scoreAgainst(d, comedianNames).FScore)
		}
		rows = append(rows, AblationRow{
			Ablation: "fact-depth",
			Setting:  fmt.Sprintf("depth=%d", depth),
			QueryID:  "funny-actors",
			FScore:   metrics.Mean(fs),
		})
	}
	return rows
}

// AblationDisjunction compares discovery with and without the optional
// disjunctive categorical filters (footnote 7): an intent spanning two
// genres (Horror OR Mystery movies) is only expressible with the
// extension.
func (s *Suite) AblationDisjunction(ctx context.Context) []AblationRow {
	g, alpha := s.IMDb()
	// Intent: movies whose certificate is G or PG (a two-value
	// disjunction over a direct attribute).
	movie := g.DB.Relation("movie")
	var truth []string
	cert := movie.Column("certificate")
	title := movie.Column("title")
	for i := 0; i < movie.NumRows(); i++ {
		if c := cert.Str(i); c == "G" || c == "NC-17" {
			truth = append(truth, title.Str(i))
		}
	}
	var rows []AblationRow
	n := 12
	for _, maxDisj := range []int{0, 3} {
		params := defaultParams()
		params.MaxDisjunction = maxDisj
		var fs []float64
		for run := 0; run < s.Scale.Runs; run++ {
			rng := s.sampler("abl-disj", run)
			examples := metrics.Sample(rng, truth, n)
			d := runSQuID(ctx, alpha, examples, params, disambig.Resolve)
			fs = append(fs, scoreAgainst(d, truth).FScore)
		}
		rows = append(rows, AblationRow{
			Ablation: "disjunction",
			Setting:  fmt.Sprintf("max=%d", maxDisj),
			QueryID:  "G-or-NC17",
			FScore:   metrics.Mean(fs),
		})
	}
	return rows
}

// AblationNormalization compares absolute vs normalized association
// strength on the funny-actors case study (the Fig 13(a) tuning).
func (s *Suite) AblationNormalization(ctx context.Context) []AblationRow {
	imdb, alpha := s.IMDb()
	cs := benchqueries.FunnyActors(imdb, s.Scale.Seed)
	var rows []AblationRow
	n := 10
	if len(cs.List) < n {
		n = len(cs.List)
	}
	for _, normalize := range []bool{false, true} {
		params := defaultParams()
		params.NormalizeAssociation = normalize
		var fs []float64
		for run := 0; run < s.Scale.Runs; run++ {
			rng := s.sampler("abl-norm", run)
			examples := metrics.Sample(rng, cs.List, n)
			d := runSQuID(ctx, alpha, examples, params, disambig.Resolve)
			if d.Err != nil || d.Result == nil {
				fs = append(fs, 0)
				continue
			}
			masked := cs.ApplyMask(d.Result.OutputValues())
			fs = append(fs, metrics.Compare(masked, cs.List).FScore)
		}
		rows = append(rows, AblationRow{
			Ablation: "normalize-association",
			Setting:  fmt.Sprintf("%v", normalize),
			QueryID:  cs.Name,
			FScore:   metrics.Mean(fs),
		})
	}
	return rows
}

// Ablations runs all ablation studies.
func (s *Suite) Ablations(ctx context.Context) []AblationRow {
	var rows []AblationRow
	rows = append(rows, s.AblationDepth(ctx)...)
	rows = append(rows, s.AblationDisjunction(ctx)...)
	rows = append(rows, s.AblationNormalization(ctx)...)
	return rows
}

// printAblations renders the ablation results.
func printAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablations: design-choice studies (DESIGN.md §5)")
	fmt.Fprintln(w, "ablation               setting    query         f-score")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-10s %-13s %7.3f\n", r.Ablation, r.Setting, r.QueryID, r.FScore)
	}
}
