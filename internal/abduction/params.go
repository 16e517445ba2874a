// Package abduction implements SQuID's primary contribution: the model of
// query intent as a base query plus semantic property filters (§3), the
// probabilistic abduction model over filters (§4), semantic context
// discovery from example entities (§6.1.2), and the linear-time query
// abduction algorithm (Algorithm 1) that is guaranteed to maximize the
// query posterior (Theorem 1).
package abduction

import "math"

// Params are SQuID's tuning parameters, defaulting to the paper's Fig 21
// values. The Appendix E sweeps (Figs 23–26) vary them one at a time.
type Params struct {
	// Rho is the base filter prior ρ: the default prior probability
	// that a filter appears in the intended query. Low ρ favors
	// recall, high ρ favors precision (Fig 23).
	Rho float64
	// Gamma is the domain-coverage penalty γ (Appendix A): 0 disables
	// the penalty; larger values penalize broad filters more (Fig 24).
	Gamma float64
	// Eta is the domain-coverage threshold η (Appendix A): filters
	// covering at most this fraction of their attribute's domain are
	// not penalized.
	Eta float64
	// TauA is the association-strength threshold τa (§4.2.2): derived
	// filters with θ < τa are insignificant and get α(φ) = 0 (Fig 25).
	TauA int
	// TauS is the skewness threshold τs (Appendix B), used by the
	// outlier impact λ (Fig 26). Set DisableOutlier for the "N/A"
	// configuration where λ(φ) ≡ 1.
	TauS float64
	// DisableOutlier turns the outlier impact off (τs = N/A in Fig 26).
	DisableOutlier bool
	// OutlierK is the mean/standard-deviation outlier constant k ≥ 2
	// (Appendix B).
	OutlierK float64
	// NormalizeAssociation switches derived association strength from
	// absolute counts to the fraction of the entity's associations
	// carrying the value (the Fig 13(a) funny-actors tuning: fraction
	// of an actor's portfolio that is comedies).
	NormalizeAssociation bool
	// TauANorm is the τa analogue for normalized strengths (a
	// fraction in (0,1]).
	TauANorm float64
	// MaxDisjunction enables disjunctive categorical filters
	// (attribute IN (v1..vk)) up to k values; 0 disables them
	// (footnote 7 of the paper: optional disjunction support).
	MaxDisjunction int
	// Workers bounds how many example sets squid's System.DiscoverBatch
	// discovers at once; 0 (the default) or less means GOMAXPROCS. One
	// discovery always runs serially on its caller's goroutine, so the
	// knob never changes an answer. Workers is a runtime knob, not part
	// of the abduction model, so snapshots do not persist it.
	Workers int
}

// DefaultParams returns the paper's default configuration (Fig 21).
func DefaultParams() Params {
	return Params{
		Rho:      0.1,
		Gamma:    2,
		Eta:      0.5,
		TauA:     5,
		TauS:     2.0,
		OutlierK: 2,
		TauANorm: 0.25,
	}
}

// QREParams returns the optimistic configuration used for query reverse
// engineering (§7.5): high filter prior, low association-strength
// threshold, and no outlier pruning, so that in the closed world every
// shared similarity is treated as intended. The domain-coverage penalty
// stays active: with the whole query output as examples, coincidental
// ranges cover most of their attribute's domain and must still be
// pruned for the abduced query to stay close to the original size
// (Fig 14).
func QREParams() Params {
	p := DefaultParams()
	p.Rho = 0.9
	p.TauA = 1
	p.DisableOutlier = true
	return p
}

// deltaImpact computes the domain-selectivity impact δ(φ) from a domain
// coverage fraction (Appendix A): δ = 1 / max(1, coverage/η)^γ.
func (p Params) deltaImpact(coverage float64) float64 {
	if p.Gamma == 0 || p.Eta <= 0 {
		return 1
	}
	base := coverage / p.Eta
	if base < 1 {
		base = 1
	}
	return 1 / math.Pow(base, p.Gamma)
}
