// Package pulearn implements the Elkan–Noto method ("Learning
// classifiers from only positive and unlabeled data", KDD 2008) used as
// the PU-learning baseline in §7.6 of the paper: train a probabilistic
// classifier g to distinguish labeled from unlabeled rows, estimate the
// label frequency c = E[g(x) | labeled] on a positive holdout, and
// classify x as positive when g(x)/c ≥ 0.5. Base estimators are the
// from-scratch decision tree and random forest of internal/baselines/ml.
package pulearn

import (
	"math/rand"
	"sort"
	"time"

	"squid/internal/adb"
	"squid/internal/baselines/ml"
)

// Estimator selects the base classifier.
type Estimator int

const (
	// DecisionTree is the single-tree estimator (PU (DT) in Fig 16).
	DecisionTree Estimator = iota
	// RandomForest is the bagging estimator (PU (RF) in Fig 16).
	RandomForest
)

// Config tunes the PU learner.
type Config struct {
	Estimator Estimator
	// HoldoutFraction of the positives is reserved for estimating c.
	HoldoutFraction float64
	Seed            int64
	Tree            ml.TreeConfig
	Forest          ml.ForestConfig
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig(e Estimator) Config {
	return Config{
		Estimator:       e,
		HoldoutFraction: 0.2,
		Seed:            1,
		Tree:            ml.DefaultTreeConfig(),
		Forest:          ml.DefaultForestConfig(),
	}
}

// Result is the outcome of one PU-learning run.
type Result struct {
	// PositiveRows are the entity rows classified positive.
	PositiveRows []int
	// C is the estimated label frequency.
	C float64
	// TrainTime and PredictTime split the end-to-end cost (Fig 16(b)).
	TrainTime   time.Duration
	PredictTime time.Duration
}

// Learn runs Elkan–Noto: positives are the labeled example rows, all
// other rows are unlabeled.
func Learn(X [][]float64, feats []ml.Feature, positiveRows []int, cfg Config) *Result {
	if cfg.HoldoutFraction == 0 {
		cfg = DefaultConfig(cfg.Estimator)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()

	// Split positives into train and holdout for the c estimate.
	perm := rng.Perm(len(positiveRows))
	nHold := int(float64(len(positiveRows)) * cfg.HoldoutFraction)
	if nHold < 1 && len(positiveRows) > 1 {
		nHold = 1
	}
	holdout := make([]int, 0, nHold)
	train := make([]int, 0, len(positiveRows)-nHold)
	for i, pi := range perm {
		if i < nHold {
			holdout = append(holdout, positiveRows[pi])
		} else {
			train = append(train, positiveRows[pi])
		}
	}
	if len(train) == 0 { // degenerate: keep at least one training positive
		train = holdout
	}

	// Labels: s = 1 for labeled (training) positives, 0 otherwise.
	s := make([]int, len(X))
	for _, r := range train {
		s[r] = 1
	}

	var clf ml.Classifier
	switch cfg.Estimator {
	case RandomForest:
		f := cfg.Forest
		f.Seed = cfg.Seed
		clf = ml.TrainForest(X, s, feats, f)
	default:
		clf = ml.Train(X, s, feats, cfg.Tree)
	}

	// c = mean g(x) over the positive holdout (Elkan–Noto estimator e1).
	c := 0.0
	for _, r := range holdout {
		c += clf.PredictProba(X[r])
	}
	if len(holdout) > 0 {
		c /= float64(len(holdout))
	}
	if c <= 0 {
		c = 1e-6 // degenerate holdout: avoid divide-by-zero, classify by raw g
	}
	trainTime := time.Since(start)

	// Classify: positive iff g(x)/c ≥ 0.5.
	start = time.Now()
	var pos []int
	for i := range X {
		if clf.PredictProba(X[i])/c >= 0.5 {
			pos = append(pos, i)
		}
	}
	sort.Ints(pos)
	return &Result{
		PositiveRows: pos,
		C:            c,
		TrainTime:    trainTime,
		PredictTime:  time.Since(start),
	}
}

// Featurize flattens a single-relation entity (the Adult table of the
// §7.6 setting) into the (X, feats) matrix the learner consumes:
// numeric attributes as-is, categorical attributes integer-coded.
func Featurize(info *adb.EntityInfo) ([][]float64, []ml.Feature) {
	var feats []ml.Feature
	var props []*adb.BasicProperty
	codes := []map[int32]float64{}
	for _, p := range info.Basic {
		if p.MultiValued {
			continue // the §7.6 setting is a single denormalized relation
		}
		props = append(props, p)
		feats = append(feats, ml.Feature{Name: p.Attr, Categorical: p.Kind == adb.Categorical})
		codes = append(codes, map[int32]float64{})
	}
	X := make([][]float64, info.NumRows)
	var vals []int32 // one property's codes of the row
	for row := 0; row < info.NumRows; row++ {
		x := make([]float64, len(props))
		for i, p := range props {
			if p.Kind == adb.Numeric {
				if v, ok := p.NumValue(row); ok {
					x[i] = v
				} else {
					x[i] = ml.MissingCat // no NaN in generated data; sentinel suffices
				}
				continue
			}
			// Dictionary codes stand in for the strings: same dense
			// feature coding, no per-row decode.
			vals = p.AppendValueCodes(vals[:0], row)
			if len(vals) == 0 {
				x[i] = ml.MissingCat
				continue
			}
			c, ok := codes[i][vals[0]]
			if !ok {
				c = float64(len(codes[i]))
				codes[i][vals[0]] = c
			}
			x[i] = c
		}
		X[row] = x
	}
	return X, feats
}
