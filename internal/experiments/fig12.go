package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"squid/internal/disambig"
	"squid/internal/metrics"
)

// Fig12Row is one point of Fig 12: f-score with and without entity
// disambiguation at one example-set size for one ambiguous intent.
type Fig12Row struct {
	Intent      string
	NumExamples int
	WithDA      float64
	WithoutDA   float64
}

// Fig12 measures the effect of entity disambiguation (§6.1.1) on
// abduction accuracy. The generator plants ambiguity where the naive
// first-match resolution picks the wrong entity: comedian names shared
// with unrelated low-credit persons, and a movie title shared by four
// films of which only one is a 2000s Sci-Fi. Examples are drawn to
// include ambiguous values; the paper's finding — disambiguation never
// hurts and can significantly improve accuracy — reproduces here.
func (s *Suite) Fig12(ctx context.Context) []Fig12Row {
	imdb, alpha := s.IMDb()
	var rows []Fig12Row

	// Intent 1: funny actors (ambiguous comedian names).
	person := imdb.DB.Relation("person")
	var comedianNames []string
	for _, id := range imdb.Comedians {
		comedianNames = append(comedianNames, person.Get(int(id), "name").Str())
	}
	sort.Strings(comedianNames)
	ambiguous := append([]string(nil), imdb.AmbiguousNames...)
	rows = append(rows, s.disambiguationCurve(ctx, "funny-actors", comedianNames, ambiguous, comedianNames, alpha)...)

	// Intent 2: 2000s Sci-Fi movies (ambiguous title).
	movie := imdb.DB.Relation("movie")
	var scifiTitles []string
	seen := map[string]bool{}
	for _, id := range imdb.SciFi2000s {
		t := movie.Get(int(id), "title").Str()
		if !seen[t] {
			seen[t] = true
			scifiTitles = append(scifiTitles, t)
		}
	}
	sort.Strings(scifiTitles)
	rows = append(rows, s.disambiguationCurve(ctx, "scifi-2000s", scifiTitles, []string{imdb.AmbiguousTitle}, scifiTitles, alpha)...)

	return rows
}

// disambiguationCurve samples example sets that always include some
// ambiguous values and scores discovery with and without the resolver.
func (s *Suite) disambiguationCurve(ctx context.Context, intent string, pool, ambiguous, truth []string, alpha *alphaDB) []Fig12Row {
	var rows []Fig12Row
	params := defaultParams()
	params.NormalizeAssociation = intent == "funny-actors"
	for _, n := range s.Scale.ExampleSizes {
		if len(pool) < n {
			continue
		}
		var with, without []float64
		for run := 0; run < s.Scale.Runs; run++ {
			rng := s.sampler("fig12"+intent, run)
			examples := sampleWithAmbiguous(rng, pool, ambiguous, n)

			d := runSQuID(ctx, alpha, examples, params, disambig.Resolve)
			with = append(with, scoreAgainst(d, truth).FScore)

			dNo := runSQuID(ctx, alpha, examples, params, nil)
			without = append(without, scoreAgainst(dNo, truth).FScore)
		}
		rows = append(rows, Fig12Row{
			Intent:      intent,
			NumExamples: n,
			WithDA:      metrics.Mean(with),
			WithoutDA:   metrics.Mean(without),
		})
	}
	return rows
}

// sampleWithAmbiguous draws n examples from pool guaranteeing that the
// available ambiguous values are included (up to n/2 of them).
func sampleWithAmbiguous(rng *rand.Rand, pool, ambiguous []string, n int) []string {
	inPool := map[string]bool{}
	for _, p := range pool {
		inPool[p] = true
	}
	var forced []string
	for _, a := range ambiguous {
		if inPool[a] && len(forced) < n/2 {
			forced = append(forced, a)
		}
	}
	rest := make([]string, 0, len(pool))
	forcedSet := map[string]bool{}
	for _, f := range forced {
		forcedSet[f] = true
	}
	for _, p := range pool {
		if !forcedSet[p] {
			rest = append(rest, p)
		}
	}
	out := append(forced, metrics.Sample(rng, rest, n-len(forced))...)
	sort.Strings(out)
	return out
}

// printFig12 renders the Fig 12 comparison.
func printFig12(w io.Writer, rows []Fig12Row) {
	fmt.Fprintln(w, "Fig 12: effect of entity disambiguation (f-score)")
	fmt.Fprintln(w, "intent        #examples  w/ DA   w/o DA")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %9d  %6.3f  %6.3f\n", r.Intent, r.NumExamples, r.WithDA, r.WithoutDA)
	}
}
