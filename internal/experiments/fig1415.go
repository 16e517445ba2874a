package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/baselines/talos"
	"squid/internal/benchqueries"
	"squid/internal/disambig"
	"squid/internal/metrics"
	"squid/internal/sqlgen"
)

// QRERow compares SQuID (optimistic QRE parameters, full query output as
// examples) against the TALOS baseline on one benchmark, the setting of
// §7.5 and Figs 14/15.
type QRERow struct {
	Dataset     string
	QueryID     string
	Cardinality int

	ActualPreds int
	SquidPreds  int
	TalosPreds  int

	SquidTime time.Duration
	TalosTime time.Duration

	SquidF float64
	TalosF float64
}

// Fig14 runs the Adult QRE comparison: both systems receive the entire
// output of each of the 20 benchmark queries; the paper's findings are
// perfect f-scores for both, far fewer predicates for SQuID, and a
// runtime crossover against input cardinality.
func (s *Suite) Fig14(ctx context.Context) []QRERow {
	g, alpha := s.Adult()
	bench := benchqueries.AdultBenchmarks(ctx, g, s.Scale.Seed)
	rows := s.qreRows(ctx, "Adult", g.DB, alpha, "adult", "name", bench)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Cardinality < rows[j].Cardinality })
	return rows
}

// Fig15a runs the IMDb QRE comparison (16 benchmarks).
func (s *Suite) Fig15a(ctx context.Context) []QRERow {
	g, alpha := s.IMDb()
	return s.qreRows(ctx, "IMDb", g.DB, alpha, "", "", benchqueries.IMDbBenchmarks(g))
}

// Fig15b runs the DBLP QRE comparison (5 benchmarks).
func (s *Suite) Fig15b(ctx context.Context) []QRERow {
	g, alpha := s.DBLP()
	return s.qreRows(ctx, "DBLP", g.DB, alpha, "", "", benchqueries.DBLPBenchmarks(g))
}

// qreRows executes the closed-world comparison. When entityOverride is
// empty, the TALOS entity/attribute are inferred from the benchmark's
// projection (its Select column).
func (s *Suite) qreRows(ctx context.Context, dataset string, db *relationDatabase, alpha *adb.AlphaDB, entityOverride, attrOverride string, bench []benchqueries.Benchmark) []QRERow {
	var rows []QRERow
	for _, bt := range benchTruths(db, bench) {
		entity, attr := entityOverride, attrOverride
		if entity == "" {
			entity = bt.Bench.Query.Select[0].Rel
			attr = bt.Bench.Query.Select[0].Col
		}
		info := alpha.Entity(entity)

		// SQuID in QRE mode: the full output is the example set.
		d := runSQuID(ctx, alpha, bt.Truth, abduction.QREParams(), disambig.Resolve)
		row := QRERow{
			Dataset:     dataset,
			QueryID:     bt.Bench.ID,
			Cardinality: len(bt.Truth),
			ActualPreds: bt.Bench.Query.TotalPredicates(),
			SquidTime:   d.Time,
		}
		if d.Err == nil && d.Result != nil {
			j, sel := sqlgen.PredicateCount(d.Result)
			row.SquidPreds = j + sel
			row.SquidF = scoreAgainst(d, bt.Truth).FScore
		}

		// TALOS (only when the projection entity is a declared entity
		// relation — which holds for all benchmarks).
		if info != nil {
			t := talos.ReverseEngineer(info, attr, bt.Truth, talos.DefaultConfig())
			row.TalosPreds = t.NumPredicates
			row.TalosTime = t.Time
			row.TalosF = metrics.Compare(t.Output, bt.Truth).FScore
		}
		rows = append(rows, row)
	}
	return rows
}

// printQRE renders a Figs 14/15-style comparison table.
func printQRE(w io.Writer, title string, rows []QRERow) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, "query  card   #preds(actual/SQuID/TALOS)   time(SQuID/TALOS)        f-score(SQuID/TALOS)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %5d  %6d / %5d / %5d          %-9v/ %-10v  %5.3f / %5.3f\n",
			r.QueryID, r.Cardinality,
			r.ActualPreds, r.SquidPreds, r.TalosPreds,
			r.SquidTime.Round(time.Microsecond), r.TalosTime.Round(time.Microsecond),
			r.SquidF, r.TalosF)
	}
}
