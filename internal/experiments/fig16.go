package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/baselines/pulearn"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/disambig"
	"squid/internal/metrics"
)

// Fig16aRow compares SQuID against PU-learning (decision tree and
// random forest estimators) at one labeled-positive fraction.
type Fig16aRow struct {
	Fraction float64
	Squid    metrics.PRF
	PUDT     metrics.PRF
	PURF     metrics.PRF
}

// Fig16a reproduces the §7.6 accuracy comparison on the Adult dataset:
// PU-learning needs a large fraction (>70% in the paper) of the query
// output as labeled examples to approach SQuID, which stays robust even
// with few examples.
func (s *Suite) Fig16a(ctx context.Context) []Fig16aRow {
	g, alpha := s.Adult()
	info := alpha.Entity("adult")
	X, feats := pulearn.Featurize(info)
	nameCol := info.Rel().Column("name")

	bench := benchqueries.AdultBenchmarks(ctx, g, s.Scale.Seed)
	bts := benchTruths(g.DB, bench)

	fractions := []float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0}
	var rows []Fig16aRow
	for _, frac := range fractions {
		var squid, pudt, purf []metrics.PRF
		for _, bt := range bts {
			posRows := rowsOfValues(info.Rel().NumRows(), nameCol.Str, bt.Truth)
			k := int(frac * float64(len(posRows)))
			if k < 2 {
				k = 2
			}
			rng := s.sampler("fig16a"+bt.Bench.ID, int(frac*100))
			sampleIdx := metrics.SampleInts(rng, len(posRows), k)
			labeled := make([]int, 0, k)
			var labeledVals []string
			for _, i := range sampleIdx {
				labeled = append(labeled, posRows[i])
				labeledVals = append(labeledVals, nameCol.Str(posRows[i]))
			}

			// SQuID with the same examples.
			d := runSQuID(ctx, alpha, labeledVals, abduction.DefaultParams(), disambig.Resolve)
			squid = append(squid, scoreAgainst(d, bt.Truth))

			// PU-learning, both estimators.
			for _, est := range []pulearn.Estimator{pulearn.DecisionTree, pulearn.RandomForest} {
				res := pulearn.Learn(X, feats, labeled, pulearn.DefaultConfig(est))
				var got []string
				for _, r := range res.PositiveRows {
					got = append(got, nameCol.Str(r))
				}
				prf := metrics.Compare(got, bt.Truth)
				if est == pulearn.DecisionTree {
					pudt = append(pudt, prf)
				} else {
					purf = append(purf, prf)
				}
			}
		}
		rows = append(rows, Fig16aRow{
			Fraction: frac,
			Squid:    metrics.MeanPRF(squid),
			PUDT:     metrics.MeanPRF(pudt),
			PURF:     metrics.MeanPRF(purf),
		})
	}
	return rows
}

func rowsOfValues(n int, valueOf func(int) string, truth []string) []int {
	set := make(map[string]bool, len(truth))
	for _, t := range truth {
		set[t] = true
	}
	var out []int
	for i := 0; i < n; i++ {
		if set[valueOf(i)] {
			out = append(out, i)
		}
	}
	return out
}

// printFig16a renders the accuracy comparison.
func printFig16a(w io.Writer, rows []Fig16aRow) {
	fmt.Fprintln(w, "Fig 16(a): SQuID vs PU-learning vs labeled fraction (Adult)")
	fmt.Fprintln(w, "fraction  SQuID(P/R/F)          PU-DT(P/R/F)          PU-RF(P/R/F)")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f  %.3f/%.3f/%.3f  %.3f/%.3f/%.3f  %.3f/%.3f/%.3f\n",
			r.Fraction,
			r.Squid.Precision, r.Squid.Recall, r.Squid.FScore,
			r.PUDT.Precision, r.PUDT.Recall, r.PUDT.FScore,
			r.PURF.Precision, r.PURF.Recall, r.PURF.FScore)
	}
}

// Fig16bRow compares runtimes at one Adult scale factor.
type Fig16bRow struct {
	ScaleFactor int
	Rows        int
	SquidTime   time.Duration
	PUTime      time.Duration
}

// Fig16b reproduces the §7.6 scalability comparison: the Adult dataset
// is replicated up to 10×; PU-learning's train+predict time grows
// linearly with the data, while SQuID's abduction time stays largely
// flat because it consults the αDB's compressed statistics rather than
// the unlabeled data.
func (s *Suite) Fig16b(ctx context.Context) []Fig16bRow {
	var rows []Fig16bRow
	for _, sf := range []int{1, 4, 7, 10} {
		cfg := s.Scale.Adult
		cfg.ScaleFactor = sf
		g := datagen.GenerateAdult(cfg)
		alpha, err := adb.Build(g.DB, adb.DefaultConfig())
		if err != nil {
			panic(err)
		}
		info := alpha.Entity("adult")
		X, feats := pulearn.Featurize(info)
		nameCol := info.Rel().Column("name")

		bench := benchqueries.AdultBenchmarks(ctx, g, s.Scale.Seed)
		bts := benchTruths(g.DB, bench)
		if len(bts) > 5 {
			bts = bts[:5]
		}

		var squidTimes, puTimes []float64
		for _, bt := range bts {
			posRows := rowsOfValues(info.Rel().NumRows(), nameCol.Str, bt.Truth)
			rng := s.sampler("fig16b"+bt.Bench.ID, sf)
			k := len(posRows) / 2
			if k < 2 {
				k = 2
			}
			idx := metrics.SampleInts(rng, len(posRows), k)
			var labeled []int
			var labeledVals []string
			for _, i := range idx {
				labeled = append(labeled, posRows[i])
				labeledVals = append(labeledVals, nameCol.Str(posRows[i]))
			}

			d := runSQuID(ctx, alpha, labeledVals, abduction.DefaultParams(), disambig.Resolve)
			squidTimes = append(squidTimes, float64(d.Time))

			res := pulearn.Learn(X, feats, labeled, pulearn.DefaultConfig(pulearn.DecisionTree))
			puTimes = append(puTimes, float64(res.TrainTime+res.PredictTime))
		}
		rows = append(rows, Fig16bRow{
			ScaleFactor: sf,
			Rows:        g.DB.Relation("adult").NumRows(),
			SquidTime:   time.Duration(metrics.Mean(squidTimes)),
			PUTime:      time.Duration(metrics.Mean(puTimes)),
		})
	}
	return rows
}

// printFig16b renders the scalability comparison.
func printFig16b(w io.Writer, rows []Fig16bRow) {
	fmt.Fprintln(w, "Fig 16(b): scalability vs Adult scale factor")
	fmt.Fprintln(w, "scale  rows     SQuID       PU(train+predict)")
	for _, r := range rows {
		fmt.Fprintf(w, "%5d  %7d  %-10v  %v\n",
			r.ScaleFactor, r.Rows, r.SquidTime.Round(time.Microsecond), r.PUTime.Round(time.Microsecond))
	}
}
