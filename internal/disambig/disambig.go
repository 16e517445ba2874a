// Package disambig implements SQuID's entity disambiguation (§6.1.1 of
// the paper): when an example value maps to several candidate entities
// (four films named Titanic), pick the combination of mappings that
// maximizes the semantic similarity across the examples — ambiguous
// examples should resolve to the entities most alike the unambiguous
// ones. Since example sets are small, all combinations are considered,
// greedily bounded for safety.
package disambig

import (
	"math"
	"squid/internal/abduction"
	"squid/internal/adb"
)

// maxCombinations bounds the exhaustive search; beyond it the resolver
// falls back to per-example greedy resolution against the current
// partial assignment.
const maxCombinations = 200000

// Resolve picks one row per example from the ambiguity candidates,
// maximizing the pairwise semantic similarity of the chosen rows. It has
// the abduction.Resolver signature so the public API can plug it into
// DiscoverCtx.
func Resolve(info *adb.EntityInfo, candidates [][]int, params abduction.Params) []int {
	if len(candidates) == 0 {
		return nil
	}
	total := 1
	exhaustive := true
	for _, c := range candidates {
		if len(c) == 0 {
			return nil
		}
		if total > maxCombinations/len(c) {
			exhaustive = false
			break
		}
		total *= len(c)
	}
	sc := newScorer(info)
	if exhaustive && total > 1 {
		return sc.resolveExhaustive(candidates)
	}
	return sc.resolveGreedy(candidates)
}

// scorer computes normalized pairwise similarities with per-row caches,
// so the exhaustive search over mapping combinations stays cheap.
type scorer struct {
	info  *adb.EntityInfo
	self  map[int]float64
	pairs map[[2]int]float64
	rows  map[int]*rowProfile
	// codes holds one row's codes of one property (AppendValueCodes),
	// or a derived walk's working memory; counts a row's strengths.
	codes  []int32
	counts []adb.CodeCount
}

// rowProfile caches one candidate row's property values, fetched from
// the αDB once and reused across every pair the row participates in
// (the exhaustive search scores O(candidates²) pairs; without the
// profile each pair re-resolved value sets and association-count maps).
// Values are dictionary codes, so set intersections and selectivity
// lookups are integer operations with no string hashing.
type rowProfile struct {
	// catVals holds, per basic categorical property (aligned with
	// info.Basic), the row's deduplicated value-code set.
	catVals []map[int32]struct{}
	// counts holds, per derived property (aligned with info.Derived),
	// the row's association counts keyed by value code.
	counts []map[int32]int
}

func newScorer(info *adb.EntityInfo) *scorer {
	return &scorer{
		info:  info,
		self:  map[int]float64{},
		pairs: map[[2]int]float64{},
		rows:  map[int]*rowProfile{},
	}
}

// profile fetches (once) the cached property values of a row.
func (sc *scorer) profile(row int) *rowProfile {
	if p, ok := sc.rows[row]; ok {
		return p
	}
	info := sc.info
	p := &rowProfile{
		catVals: make([]map[int32]struct{}, len(info.Basic)),
		counts:  make([]map[int32]int, len(info.Derived)),
	}
	for i, prop := range info.Basic {
		if prop.Kind != adb.Categorical {
			continue
		}
		sc.codes = prop.AppendValueCodes(sc.codes[:0], row)
		codes := sc.codes
		if len(codes) == 0 {
			continue
		}
		set := make(map[int32]struct{}, len(codes))
		for _, c := range codes {
			set[c] = struct{}{}
		}
		p.catVals[i] = set
	}
	for i, prop := range info.Derived {
		sc.counts, sc.codes = prop.AppendCounts(sc.counts[:0], sc.codes, row)
		if len(sc.counts) == 0 {
			continue
		}
		m := make(map[int32]int, len(sc.counts))
		for _, cc := range sc.counts {
			m[cc.Code] = cc.Count
		}
		p.counts[i] = m
	}
	sc.rows[row] = p
	return p
}

// resolveExhaustive scores every combination. The recursion carries the
// partial pairwise score of the prefix, so extending an assignment by
// one example costs O(prefix) cached-sim lookups instead of rescoring
// the whole set per leaf.
func (sc *scorer) resolveExhaustive(candidates [][]int) []int {
	assign := make([]int, len(candidates))
	best := make([]int, len(candidates))
	bestScore := -1.0
	var recurse func(i int, partial float64)
	recurse = func(i int, partial float64) {
		if i == len(candidates) {
			if partial > bestScore {
				bestScore = partial
				copy(best, assign)
			}
			return
		}
		for _, row := range candidates[i] {
			assign[i] = row
			gain := 0.0
			for j := 0; j < i; j++ {
				gain += sc.sim(assign[j], row)
			}
			recurse(i+1, partial+gain)
		}
	}
	recurse(0, 0)
	return best
}

// resolveGreedy fixes unambiguous examples first, then assigns each
// ambiguous example the candidate most similar to the fixed set.
func (sc *scorer) resolveGreedy(candidates [][]int) []int {
	out := make([]int, len(candidates))
	var fixed []int
	for i, c := range candidates {
		if len(c) == 1 {
			out[i] = c[0]
			fixed = append(fixed, c[0])
		} else {
			out[i] = -1
		}
	}
	for i, c := range candidates {
		if out[i] != -1 {
			continue
		}
		bestRow, bestScore := c[0], -1.0
		for _, row := range c {
			s := 0.0
			for _, f := range fixed {
				s += sc.sim(row, f)
			}
			if s > bestScore {
				bestScore = s
				bestRow = row
			}
		}
		out[i] = bestRow
		fixed = append(fixed, bestRow)
	}
	return out
}

// sim is the cosine-normalized similarity: shared information weight
// divided by the geometric mean of the rows' self weights. The
// normalization stops high-degree hub entities (a prolific actor shares
// *something* with everyone) from outscoring the genuinely alike
// candidate.
func (sc *scorer) sim(a, b int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	key := [2]int{a, b}
	if v, ok := sc.pairs[key]; ok {
		return v
	}
	raw := sc.pairSimilarity(a, b)
	norm := math.Sqrt(sc.selfWeight(a) * sc.selfWeight(b))
	v := 0.0
	if norm > 0 {
		v = raw / norm
	}
	sc.pairs[key] = v
	return v
}

// selfWeight is the total information weight of a row's own property
// values (its "vector length" in the cosine analogy).
func (sc *scorer) selfWeight(row int) float64 {
	if v, ok := sc.self[row]; ok {
		return v
	}
	info := sc.info
	prof := sc.profile(row)
	w := 0.0
	for i, p := range info.Basic {
		switch p.Kind {
		case adb.Categorical:
			for c := range prof.catVals[i] {
				w += rarity(p.SelectivityOfCode(c))
			}
		case adb.Numeric:
			if _, ok := p.NumValue(row); ok {
				w++ // numeric self-closeness is 1 by definition
			}
		}
	}
	for i, p := range info.Derived {
		for c, n := range prof.counts[i] {
			w += rarity(p.SelectivityOfCode(c, n))
		}
	}
	sc.self[row] = w
	return w
}

// pairSimilarity measures the semantic similarity of two entities.
// Shared values are weighted by their information content −log ψ(v), so
// sharing a rare property (the same specific movie, the same uncommon
// genre association) dominates sharing common ones (gender, popular
// keywords): this is what makes the 1997 Titanic win against its
// namesakes, and what keeps an ambiguous cast-member name resolving to
// the co-star rather than a popular homonym. Derived associations use
// ψ(v, min-strength), so strong shared associations count more (the
// paper: "SQuID aims to increase the association strength"). Both rows'
// value sets come from the scorer's per-row profiles, so each pair costs
// a weighted set intersection with no αDB refetches.
func (sc *scorer) pairSimilarity(a, b int) float64 {
	if a == b {
		return 0
	}
	info := sc.info
	pa, pb := sc.profile(a), sc.profile(b)
	score := 0.0
	for i, p := range info.Basic {
		switch p.Kind {
		case adb.Categorical:
			av, bv := pa.catVals[i], pb.catVals[i]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			if len(bv) < len(av) {
				av, bv = bv, av
			}
			for c := range av {
				if _, ok := bv[c]; ok {
					score += rarity(p.SelectivityOfCode(c))
				}
			}
		case adb.Numeric:
			av, aok := p.NumValue(a)
			bv, bok := p.NumValue(b)
			if !aok || !bok {
				continue
			}
			lo, hi, _ := p.NumRange()
			span := hi - lo
			if span <= 0 {
				continue
			}
			d := av - bv
			if d < 0 {
				d = -d
			}
			score += 1 - d/span
		}
	}
	for i, p := range info.Derived {
		ac, bc := pa.counts[i], pb.counts[i]
		if len(ac) == 0 || len(bc) == 0 {
			continue
		}
		for c, n := range ac {
			if m, ok := bc[c]; ok {
				minStrength := n
				if m < n {
					minStrength = m
				}
				score += rarity(p.SelectivityOfCode(c, minStrength))
			}
		}
	}
	return score
}

// rarity converts a selectivity into an information weight −ln ψ,
// clamped to avoid infinities on empty statistics.
func rarity(psi float64) float64 {
	if psi <= 0 {
		return 0 // value unseen in statistics: no evidence either way
	}
	if psi >= 1 {
		return 0
	}
	return -math.Log(psi)
}
