// Package experiments reproduces every table and figure of the paper's
// evaluation (§7 and Appendix E): scalability (Fig 9), abduction
// accuracy (Fig 10), abduced-query runtime (Fig 11), entity
// disambiguation (Fig 12), the three case studies (Fig 13), the QRE
// comparison against the TALOS baseline (Figs 14/15), the PU-learning
// comparison (Fig 16), dataset statistics (Fig 18), the benchmark
// inventories (Figs 19/20/22), and the parameter sweeps (Figs 23–26).
// Each experiment has a runner returning structured rows plus a printer
// that emits the paper-style series, and is wired to cmd/squid-bench and
// the root bench_test.go.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/metrics"
	"squid/internal/relation"
)

// Scale sizes the datasets and the statistical effort of the harness.
type Scale struct {
	IMDb  datagen.IMDbConfig
	DBLP  datagen.DBLPConfig
	Adult datagen.AdultConfig
	// Runs is the number of repetitions behind every averaged data
	// point (the paper uses 10).
	Runs int
	// ExampleSizes are the |E| values swept in the accuracy and
	// scalability figures.
	ExampleSizes []int
	// Seed drives all example sampling.
	Seed int64
}

// FullScale is the configuration used for the recorded experiment runs
// (EXPERIMENTS.md).
func FullScale() Scale {
	return Scale{
		IMDb:         datagen.DefaultIMDbConfig(),
		DBLP:         datagen.DefaultDBLPConfig(),
		Adult:        datagen.DefaultAdultConfig(),
		Runs:         5,
		ExampleSizes: []int{5, 10, 15, 20, 25, 30},
		Seed:         20190625,
	}
}

// TestScale is a reduced configuration keeping the unit tests fast.
func TestScale() Scale {
	return Scale{
		IMDb:         datagen.IMDbConfig{Seed: 7, NumPersons: 1500, NumMovies: 600, NumCompany: 30},
		DBLP:         datagen.DBLPConfig{Seed: 3, NumAuthor: 800, NumPubs: 1600},
		Adult:        datagen.AdultConfig{Seed: 5, NumRows: 1500, ScaleFactor: 1},
		Runs:         2,
		ExampleSizes: []int{5, 10, 15},
		Seed:         99,
	}
}

// Suite lazily builds and caches the datasets and their αDBs.
type Suite struct {
	Scale Scale

	imdb      *datagen.IMDb
	imdbAlpha *adb.AlphaDB
	dblp      *datagen.DBLP
	dblpAlpha *adb.AlphaDB
	adult     *datagen.Adult
	adultAl   *adb.AlphaDB
}

// NewSuite creates a suite at the given scale.
func NewSuite(s Scale) *Suite { return &Suite{Scale: s} }

// IMDb returns the (cached) IMDb dataset and αDB.
func (s *Suite) IMDb() (*datagen.IMDb, *adb.AlphaDB) {
	if s.imdb == nil {
		s.imdb = datagen.GenerateIMDb(s.Scale.IMDb)
		s.imdbAlpha = mustBuild(s.imdb.DB)
	}
	return s.imdb, s.imdbAlpha
}

// DBLP returns the (cached) DBLP dataset and αDB.
func (s *Suite) DBLP() (*datagen.DBLP, *adb.AlphaDB) {
	if s.dblp == nil {
		s.dblp = datagen.GenerateDBLP(s.Scale.DBLP)
		s.dblpAlpha = mustBuild(s.dblp.DB)
	}
	return s.dblp, s.dblpAlpha
}

// Adult returns the (cached) Adult dataset and αDB.
func (s *Suite) Adult() (*datagen.Adult, *adb.AlphaDB) {
	if s.adult == nil {
		s.adult = datagen.GenerateAdult(s.Scale.Adult)
		s.adultAl = mustBuild(s.adult.DB)
	}
	return s.adult, s.adultAl
}

func mustBuild(db *relationDatabase) *adb.AlphaDB {
	alpha, err := adb.Build(db, adb.DefaultConfig())
	if err != nil {
		panic(fmt.Sprintf("experiments: αDB build failed for %s: %v", db.Name, err))
	}
	return alpha
}

// Discovery is the measured outcome of one SQuID run.
type Discovery struct {
	Result *abduction.Result
	Time   time.Duration
	Err    error
}

// runSQuID executes the full online pipeline (entity lookup,
// disambiguation with r — nil takes the first match, the "w/o DA"
// configuration of Fig 12 — context discovery, abduction) on example
// strings and measures its wall time — the "query discovery time" of
// §7.1.
func runSQuID(ctx context.Context, alpha *adb.AlphaDB, examples []string, params abduction.Params, r abduction.Resolver) Discovery {
	start := time.Now()
	results, err := abduction.DiscoverCtx(ctx, alpha.Snapshot(), examples, params, r)
	elapsed := time.Since(start)
	if err != nil {
		return Discovery{Err: err, Time: elapsed}
	}
	return Discovery{Result: results[0], Time: elapsed}
}

// scoreAgainst compares a discovery's output to the intended output.
func scoreAgainst(d Discovery, truth []string) metrics.PRF {
	if d.Err != nil || d.Result == nil {
		return metrics.PRF{}
	}
	return metrics.Compare(d.Result.OutputValues(), truth)
}

// sampler produces deterministic example samples per (query, size, run).
func (s *Suite) sampler(tag string, run int) *rand.Rand {
	h := int64(0)
	for _, c := range tag {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(s.Scale.Seed ^ h ^ int64(run)*2654435761))
}

// benchTruths executes every benchmark's ground truth once, skipping
// empty ones, and returns (benchmark, truth) pairs.
func benchTruths(db *relationDatabase, bench []benchqueries.Benchmark) []benchTruth {
	var out []benchTruth
	for _, b := range bench {
		truth, err := benchqueries.GroundTruth(db, b)
		if err != nil || len(truth) == 0 {
			continue
		}
		out = append(out, benchTruth{b, truth})
	}
	return out
}

type benchTruth struct {
	Bench benchqueries.Benchmark
	Truth []string
}

// relationDatabase, alphaDB, and abductionParams alias frequently-used
// types to keep runner signatures short.
type (
	relationDatabase = relation.Database
	alphaDB          = adb.AlphaDB
	abductionParams  = abduction.Params
)

func abdDefaultParams() abduction.Params { return abduction.DefaultParams() }
