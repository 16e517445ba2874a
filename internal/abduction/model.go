package abduction

import (
	"context"
	"math"

	"squid/internal/trace"
)

// FilterDecision records the per-filter posterior computation of
// Algorithm 1: the prior factors, the include/exclude scores from
// Equation 5, and the decision.
type FilterDecision struct {
	Filter      *Filter
	Selectivity float64
	Delta       float64 // domain-selectivity impact δ(φ)
	Alpha       float64 // association-strength impact α(φ)
	Lambda      float64 // outlier impact λ(φ)
	Prior       float64 // Pr*(φ) = ρ·δ·α·λ
	Include     float64 // Pr*(φ)·Pr*(x|φ) = Pr*(φ)
	Exclude     float64 // Pr*(φ̄)·Pr*(x|φ̄) = (1−Pr*(φ))·ψ(φ)^|E|
	Included    bool
}

// skewness computes the sample skewness of Appendix B:
// n·Σ(aᵢ−ā)³ / (s³·(n−1)·(n−2)); it returns (0, false) when n < 3 or the
// sample has zero variance.
func skewness(vals []float64) (float64, bool) {
	n := float64(len(vals))
	if n < 3 {
		return 0, false
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= n
	var m2, m3 float64
	for _, v := range vals {
		d := v - mean
		m2 += d * d
		m3 += d * d * d
	}
	s := math.Sqrt(m2 / (n - 1)) // sample standard deviation
	if s == 0 {
		return 0, false
	}
	return n * m3 / (s * s * s * (n - 1) * (n - 2)), true
}

// meanStd returns the sample mean and standard deviation.
func meanStd(vals []float64) (mean, std float64) {
	n := float64(len(vals))
	if n == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var m2 float64
	for _, v := range vals {
		d := v - mean
		m2 += d * d
	}
	return mean, math.Sqrt(m2 / (n - 1))
}

// lambdaImpacts computes the outlier impact λ(φ) of every filter
// (Appendix B), indexed like filters. Basic filters always get λ = 1.
// Derived filters are grouped into families sharing the same attribute;
// a family's association-strength distribution Θ_A must be skewed
// beyond τs AND the filter's θ must be an outlier ((θ − mean) > k·s)
// for λ = 1. Families with fewer than 3 members treat every element as
// an outlier (and the skewness test as passed), per the appendix. A
// family's strengths are read in filter order, so the sums behind its
// statistics are the same whatever else the filters hold.
func lambdaImpacts(filters []*Filter, params Params) []float64 {
	out := make([]float64, len(filters))
	if params.DisableOutlier {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	// head[i] is the first filter of derived filter i's family: an
	// earlier head of the same family, else i itself.
	head := make([]int32, len(filters))
	for i, f := range filters {
		if f.Kind != Derived {
			out[i] = 1
			continue
		}
		head[i] = int32(i)
		for j := range i {
			if filters[j].Kind == Derived && head[j] == int32(j) && sameFamily(filters[j], f) {
				head[i] = int32(j)
				break
			}
		}
	}
	var strengths []float64
	for h, f := range filters {
		if f.Kind != Derived || head[h] != int32(h) {
			continue
		}
		strengths = strengths[:0]
		for i := h; i < len(filters); i++ {
			if filters[i].Kind == Derived && head[i] == int32(h) {
				strengths = append(strengths, filters[i].effectiveStrength())
			}
		}
		if len(strengths) < 3 {
			// Skewness undefined: assume all elements are outliers.
			for i := h; i < len(filters); i++ {
				if filters[i].Kind == Derived && head[i] == int32(h) {
					out[i] = 1
				}
			}
			continue
		}
		skew, ok := skewness(strengths)
		mean, std := meanStd(strengths)
		for i := h; i < len(filters); i++ {
			if filters[i].Kind != Derived || head[i] != int32(h) {
				continue
			}
			isOutlier := std > 0 && (filters[i].effectiveStrength()-mean) > params.OutlierK*std
			if ok && skew > params.TauS && isOutlier {
				out[i] = 1
			}
		}
	}
	return out
}

// sameFamily reports whether two derived filters constrain the same
// attribute of the same entity.
func sameFamily(a, b *Filter) bool {
	return a.Derivd == b.Derivd || a.Derivd.Entity == b.Derivd.Entity && a.Derivd.Attr == b.Derivd.Attr
}

// alphaImpact computes the association-strength impact α(φ) (§4.2.2):
// derived filters weaker than τa are insignificant.
func alphaImpact(f *Filter, params Params) float64 {
	if f.Kind != Derived {
		return 1
	}
	if f.NormUse {
		if f.ThetaN < params.TauANorm {
			return 0
		}
		return 1
	}
	if f.Theta < params.TauA {
		return 0
	}
	return 1
}

// abduceCtx runs Algorithm 1: for each minimal valid filter decide
// independently whether including it increases the query posterior
// (Equation 5), returning the decisions and the selected filter set.
// Ties drop the filter (Occam's razor, Appendix C).
//
// The selectivities (the expensive step of Algorithm 1) are computed
// first, in their own trace span, so the decision loop that follows
// reads them at memo cost. ctx is checked before every selectivity and
// every decision, which is what makes a single long discovery abort
// promptly instead of only between requests.
func abduceCtx(ctx context.Context, contexts []Context, params Params, sp trace.Span) ([]FilterDecision, []*Filter, error) {
	filters := make([]*Filter, len(contexts))
	for i, c := range contexts {
		filters[i] = c.Filter
	}
	lambdas := lambdaImpacts(filters, params)

	// The selectivity prefetch is the candidate's cache-heavy phase; its
	// span collects the hit/miss/store counters of the lookups.
	ss := sp.Child(trace.PhaseSelectivity, "")
	for _, f := range filters {
		if err := ctx.Err(); err != nil {
			ss.End()
			return nil, nil, err
		}
		f.selectivityT(ss)
	}
	ss.End()

	as := sp.Child(trace.PhaseAbduce, "")
	defer as.End()
	as.Add(trace.CounterContexts, int64(len(contexts)))
	decisions := make([]FilterDecision, 0, len(contexts))
	var selected []*Filter
	for i, c := range contexts {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		f := c.Filter
		psi := f.Selectivity()
		delta := params.deltaImpact(f.DomainCoverage())
		alpha := alphaImpact(f, params)
		lambda := lambdas[i]
		prior := params.Rho * delta * alpha * lambda

		include := prior // Pr*(x|φ) = 1
		exclude := (1 - prior) * math.Pow(psi, float64(c.NumExamples))
		if psi >= 1 {
			// A filter every tuple satisfies cannot change the query
			// output; encode it as the Appendix C tie so Occam's razor
			// drops it (and Theorem 1's optimality is preserved: both
			// choices score identically).
			include = exclude
		}
		d := FilterDecision{
			Filter:      f,
			Selectivity: psi,
			Delta:       delta,
			Alpha:       alpha,
			Lambda:      lambda,
			Prior:       prior,
			Include:     include,
			Exclude:     exclude,
			Included:    include > exclude,
		}
		if d.Included {
			selected = append(selected, f)
		}
		decisions = append(decisions, d)
	}
	as.Add(trace.CounterSelected, int64(len(selected)))
	return decisions, selected, nil
}

// LogPosteriorScore returns the (unnormalized) log posterior of a chosen
// subset under Equation 5, ignoring the constant K/ψ(Φ) factor that is
// identical across subsets of the same candidate set. Exposed for the
// Theorem 1 cross-check and base-query ranking.
func LogPosteriorScore(decisions []FilterDecision, chosen map[*Filter]bool) float64 {
	score := 0.0
	for _, d := range decisions {
		if chosen[d.Filter] {
			score += math.Log(d.Include)
		} else {
			score += math.Log(d.Exclude)
		}
	}
	return score
}
