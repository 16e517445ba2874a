package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"squid/internal/benchqueries"
	"squid/internal/disambig"
	"squid/internal/engine"
	"squid/internal/metrics"
	"squid/internal/sqlgen"
)

// Fig11Row compares the execution time of the intended (actual) query
// with the abduced query for one benchmark.
type Fig11Row struct {
	Dataset     string
	QueryID     string
	ActualTime  time.Duration
	AbducedTime time.Duration
}

// Fig11 executes each benchmark's ground-truth query on the original
// database and the abduced query (lowered to an engine plan over the
// combined αDB database) and compares runtimes — the paper's finding is
// that abduced queries are rarely slower, often faster thanks to the
// precomputed derived relations.
func (s *Suite) Fig11(ctx context.Context) []Fig11Row {
	var rows []Fig11Row
	imdb, imdbAlpha := s.IMDb()
	rows = append(rows, s.runtimeRows(ctx, "IMDb", imdb.DB, imdbAlpha, benchqueries.IMDbBenchmarks(imdb))...)
	dblp, dblpAlpha := s.DBLP()
	rows = append(rows, s.runtimeRows(ctx, "DBLP", dblp.DB, dblpAlpha, benchqueries.DBLPBenchmarks(dblp))...)
	return rows
}

func (s *Suite) runtimeRows(ctx context.Context, dataset string, db *relationDatabase, alpha *alphaDB, bench []benchqueries.Benchmark) []Fig11Row {
	var rows []Fig11Row
	params := defaultParams()
	combined := alpha.CombinedDB()
	origExec := engine.NewExecutor(db)
	combExec := engine.NewExecutor(combined)
	n := 15
	for _, bt := range benchTruths(db, bench) {
		if len(bt.Truth) < n {
			continue
		}
		rng := s.sampler("fig11"+dataset+bt.Bench.ID, 0)
		examples := metrics.Sample(rng, bt.Truth, n)
		d := runSQuID(ctx, alpha, examples, params, disambig.Resolve)
		if d.Err != nil || d.Result == nil {
			continue
		}
		plan := sqlgen.ToEngineQuery(d.Result)

		actual := timeQuery(ctx, origExec, bt.Bench.Query)
		abduced := timeQuery(ctx, combExec, plan)
		if actual < 0 || abduced < 0 {
			continue
		}
		rows = append(rows, Fig11Row{
			Dataset:     dataset,
			QueryID:     bt.Bench.ID,
			ActualTime:  actual,
			AbducedTime: abduced,
		})
	}
	return rows
}

// timeQuery executes the plan a few times and returns the best wall
// time (-1 on error).
func timeQuery(ctx context.Context, exec *engine.Executor, q *engine.Query) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := exec.ExecuteCtx(ctx, q); err != nil {
			return -1
		}
		if t := time.Since(start); best < 0 || t < best {
			best = t
		}
	}
	return best
}

// printFig11 renders the Fig 11 comparison.
func printFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintln(w, "Fig 11: intended vs abduced query runtime")
	fmt.Fprintln(w, "dataset  query  actual      abduced")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-6s %-10v  %v\n",
			r.Dataset, r.QueryID, r.ActualTime.Round(time.Microsecond), r.AbducedTime.Round(time.Microsecond))
	}
}
