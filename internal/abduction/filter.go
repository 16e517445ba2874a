package abduction

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"squid/internal/adb"
	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/trace"
)

// FilterKind classifies semantic property filters (§3.1).
type FilterKind int

const (
	// BasicCategorical is φ⟨A,v,⊥⟩ on a categorical attribute
	// (possibly disjunctive: A IN (v1..vk)).
	BasicCategorical FilterKind = iota
	// BasicNumeric is φ⟨A,[lo,hi],⊥⟩ on a numeric attribute.
	BasicNumeric
	// Derived is φ⟨A,v,θ⟩: association with value v at strength ≥ θ.
	Derived
)

// Filter is a semantic property filter φ. A filter references the αDB
// property it constrains, so selectivity and satisfying-entity lookups
// are O(log n) against precomputed statistics.
type Filter struct {
	Kind FilterKind

	Basic   *adb.BasicProperty
	Derivd  *adb.DerivedProperty
	Values  []string // categorical value(s), sorted; single unless disjunctive
	Lo, Hi  float64  // numeric range (BasicNumeric)
	Theta   int      // association strength threshold (Derived, absolute)
	ThetaN  float64  // normalized strength threshold (Derived, normalized mode)
	NormUse bool     // whether ThetaN is in effect

	// Unstored marks a filter whose operands a client wrote (an executed
	// plan's) rather than a discovery found in the data: its row set is
	// read from the property's memo when a discovery left it there, and
	// otherwise built for this filter alone and dropped with it. Only
	// operands the data holds may grow a memo.
	Unstored bool

	// Per-filter memos. A filter references properties of one immutable
	// αDB epoch, whose statistics never change for the lifetime of the
	// pointer (copy-on-write inserts publish clones under fresh
	// identities), so the memos can never go stale — the generation
	// re-pinning machinery the locked αDB needed is gone. A Filter
	// belongs to one discovery, which runs on one goroutine, so the
	// memos need no locking. Cross-discovery reuse happens one layer
	// down in the properties' own row-set memos.
	selOK, setOK bool
	// one holds the code of a single value, which codes then views. It
	// and the flags share a word with the ones above.
	one    [1]int32
	selVal float64
	rowSet *index.RowSet

	// degree is the companion degree property used to normalize
	// association strengths (set only in normalized mode).
	degree *adb.DerivedProperty

	// codes are the dictionary codes of Values, in order (NoCode for a
	// value the dictionary lacks): the context that found the values
	// keeps their codes, and a filter built from strings (a client's
	// plan) looks them up on first use. Selectivity, the row-set build
	// and SatisfiedBy read codes, never a string.
	codes []int32
}

// onValue makes f a filter on the value of code, read in place from
// vals, the dictionary's immutable prefix.
func (f *Filter) onValue(vals []string, code int32) {
	f.Values, f.one[0] = vals[code:code+1:code+1], code
	f.codes = f.one[:]
}

// valueCodes returns the codes of Values, looking them up on first use.
func (f *Filter) valueCodes() []int32 {
	if f.codes == nil && f.Kind != BasicNumeric {
		f.codes = f.one[:]
		if len(f.Values) != 1 {
			f.codes = make([]int32, len(f.Values))
		}
		for i, v := range f.Values {
			var ok bool
			if f.Kind == Derived {
				f.codes[i], ok = f.Derivd.LookupCode(v)
			} else {
				f.codes[i], ok = f.Basic.LookupCode(v)
			}
			if !ok {
				f.codes[i] = relation.NoCode
			}
		}
	}
	return f.codes
}

// code returns the code of the single value (the first for
// disjunctions), NoCode when there is none.
func (f *Filter) code() int32 {
	if codes := f.valueCodes(); len(codes) > 0 {
		return codes[0]
	}
	return relation.NoCode
}

// Attr returns the display attribute name.
func (f *Filter) Attr() string {
	if f.Kind == Derived {
		return f.Derivd.Attr
	}
	return f.Basic.Attr
}

// Value returns the single categorical value (first for disjunctions).
func (f *Filter) Value() string {
	if len(f.Values) == 0 {
		return ""
	}
	return f.Values[0]
}

// String renders the filter in the paper's φ⟨A,V,θ⟩ notation.
func (f *Filter) String() string {
	switch f.Kind {
	case BasicCategorical:
		return fmt.Sprintf("φ⟨%s,%s,⊥⟩", f.Attr(), strings.Join(f.Values, "|"))
	case BasicNumeric:
		return fmt.Sprintf("φ⟨%s,[%g,%g],⊥⟩", f.Attr(), f.Lo, f.Hi)
	default:
		if f.NormUse {
			return fmt.Sprintf("φ⟨%s,%s,%.2f⟩", f.Attr(), f.Value(), f.ThetaN)
		}
		return fmt.Sprintf("φ⟨%s,%s,%d⟩", f.Attr(), f.Value(), f.Theta)
	}
}

// Selectivity returns ψ(φ): the fraction of base-query tuples satisfying
// the filter (§4.2.1), from the αDB's precomputed statistics. The value
// is memoized per filter, so callers (Algorithm 1, the intersection
// planner's sort) can ask repeatedly at map-read cost.
func (f *Filter) Selectivity() float64 {
	return f.selectivityT(trace.Span{})
}

// selectivityT is Selectivity with cache events attributed to sp (the
// branches that materialize a row set route through the αDB cache).
func (f *Filter) selectivityT(sp trace.Span) float64 {
	if f.selOK {
		return f.selVal
	}
	switch f.Kind {
	case BasicCategorical:
		if len(f.Values) == 1 {
			f.selVal = f.Basic.SelectivityOfCode(f.code())
		} else {
			// Disjunction: count entities holding any value. For
			// multi-valued attributes the per-value sets can overlap,
			// so count the union exactly — a popcount over the cached
			// bitset.
			f.selVal = float64(f.rowSetT(sp).Count()) / float64(max(1, f.Basic.NumEntities()))
		}
	case BasicNumeric:
		f.selVal = f.Basic.RangeSelectivity(f.Lo, f.Hi)
	default:
		if f.NormUse {
			f.selVal = float64(f.rowSetT(sp).Count()) / float64(max(1, f.Derivd.NumEntities()))
		} else {
			f.selVal = f.Derivd.SelectivityOfCode(f.code(), f.Theta)
		}
	}
	f.selOK = true
	return f.selVal
}

// DomainCoverage returns the fraction of the attribute domain the filter
// covers (Appendix A input to δ).
func (f *Filter) DomainCoverage() float64 {
	switch f.Kind {
	case BasicCategorical:
		return f.Basic.CategoricalDomainCoverage(len(f.Values))
	case BasicNumeric:
		return f.Basic.DomainCoverage(f.Lo, f.Hi)
	default:
		// Derived filters are value-point conditions; breadth is
		// governed by α and λ instead.
		return 0
	}
}

// RowSet returns the satisfying-entity rows as a dense bitset, straight
// from the αDB's indexes and memoized row-set cache — no column
// rescans. The returned set aliases αDB-cache storage; callers must not
// mutate it (Clone first).
func (f *Filter) RowSet() *index.RowSet {
	return f.rowSetT(trace.Span{})
}

// rowSetT is RowSet with cache events attributed to sp.
func (f *Filter) rowSetT(sp trace.Span) *index.RowSet {
	if f.setOK {
		return f.rowSet
	}
	store := !f.Unstored
	switch f.Kind {
	case BasicCategorical:
		f.rowSet = f.Basic.EntityRowSetWithAnyCode(f.valueCodes(), sp, store)
	case BasicNumeric:
		f.rowSet = f.Basic.EntityRowSetInRange(f.Lo, f.Hi, sp, store)
	default:
		if f.NormUse {
			f.rowSet = f.Derivd.EntityRowSetWithNormStrength(f.code(), f.ThetaN, f.degree, sp, store)
		} else {
			f.rowSet = f.Derivd.EntityRowSetWithStrength(f.code(), f.Theta, sp, store)
		}
	}
	f.setOK = true
	return f.rowSet
}

// SatisfiedBy reports whether the entity at row satisfies the filter.
// Categorical membership compares dictionary codes, not strings, read
// into a scratch on the stack.
func (f *Filter) SatisfiedBy(info *adb.EntityInfo, row int) bool {
	switch f.Kind {
	case BasicCategorical:
		var scratch [64]int32
		codes := f.Basic.AppendValueCodes(scratch[:0], row)
		for _, want := range f.valueCodes() {
			if want != relation.NoCode && slices.Contains(codes, want) {
				return true
			}
		}
		return false
	case BasicNumeric:
		v, ok := f.Basic.NumValue(row)
		return ok && v >= f.Lo && v <= f.Hi
	default:
		c := f.Derivd.StrengthOfCode(row, f.code())
		if f.NormUse {
			d := f.degreeOf(row)
			return d > 0 && float64(c)/d >= f.ThetaN
		}
		return c >= f.Theta
	}
}

// degreeOf returns the entity's total association count for the derived
// property's via-entity (the normalization denominator), or 0; an
// O(log n) posting-list search.
func (f *Filter) degreeOf(row int) float64 {
	if f.degree == nil {
		return 0
	}
	return float64(f.degree.Degree(row))
}

// RowSetUnder is RowSet with the fetch recorded as a rowset span under
// parent, labeled with the filter: the memo events, the cells a miss
// streamed and the set's size are attributed per property. Untraced, it
// neither builds the label nor counts the set.
func (f *Filter) RowSetUnder(parent trace.Span) *index.RowSet {
	if !parent.Active() {
		return f.RowSet()
	}
	sp := parent.Child(trace.PhaseRowSet, f.String())
	set := f.rowSetT(sp)
	sp.Add(trace.CounterRows, int64(set.Count()))
	sp.End()
	return set
}

// IntersectRows intersects the satisfying-row sets of all filters,
// starting from the full entity relation; it returns the output rows of
// the abduced query Qϕ (used to measure precision/recall without a full
// engine round trip).
func IntersectRows(info *adb.EntityInfo, filters []*Filter) []int {
	if len(filters) == 0 {
		all := make([]int, info.NumRows)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return IntersectRowSet(filters).ToSorted()
}

// IntersectRowSet intersects the satisfying-row sets of one or more
// filters into a set of the caller's own. Each filter's row set is an
// adaptive RowSet from the αDB cache. The cascade is seeded by cloning
// the most selective filter's set — a clone preserves the form, so a
// highly-selective sparse seed stays sparse the whole way down: ANDing
// against the remaining sets gallops (sparse×sparse) or bitmap-probes
// (sparse×dense) per member instead of scanning the universe's words,
// and never allocates a bitset. Aborted the moment the accumulator
// empties.
func IntersectRowSet(filters []*Filter) *index.RowSet {
	// Order filters by ascending selectivity so the working set shrinks
	// fast.
	fs := slices.Clone(filters)
	slices.SortFunc(fs, func(a, b *Filter) int { return cmp.Compare(a.Selectivity(), b.Selectivity()) })
	acc := fs[0].RowSet().Clone() // detach from the shared αDB cache
	for _, f := range fs[1:] {
		if !acc.AndWith(f.RowSet()) {
			break
		}
	}
	return acc
}

// effectiveStrength returns the filter's association strength on the
// scale in effect (absolute count or normalized fraction), used by the
// α and λ impacts.
func (f *Filter) effectiveStrength() float64 {
	if f.NormUse {
		return f.ThetaN
	}
	return float64(f.Theta)
}

// validFor reports whether every example row satisfies the filter —
// Definition 3.1 (filter validity). Context discovery only emits valid
// filters; this is the invariant checked by tests.
func (f *Filter) validFor(info *adb.EntityInfo, exampleRows []int) bool {
	for _, r := range exampleRows {
		if !f.SatisfiedBy(info, r) {
			return false
		}
	}
	return true
}
