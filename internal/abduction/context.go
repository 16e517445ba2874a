package abduction

import (
	"context"
	"slices"

	"squid/internal/adb"
	"squid/internal/trace"
)

// Context is a semantic context x = (p, |E|): a semantic property
// observed across all |E| examples (§4.1). Each context corresponds to
// one minimal valid filter.
type Context struct {
	Filter      *Filter
	NumExamples int
}

// DiscoverContexts walks every semantic property of the entity relation
// and emits the semantic contexts exhibited by the example rows
// (§6.1.2), each paired with its minimal valid filter (Definition 3.2):
//
//   - basic categorical: one context per value shared by all examples
//     (multi-valued attributes can share several values, e.g. the
//     Dunkirk/Logan/Taken genres Action and Thriller);
//   - basic numeric: the tightest range [min, max] of the example
//     values, provided every example has a value;
//   - derived: one context per value all examples are associated with,
//     at θ = the minimum association strength among the examples.
//
// With Params.MaxDisjunction > 0, single-valued categorical attributes
// whose examples take 2..k distinct values yield a disjunctive IN filter
// (the paper's optional footnote-7 extension).
func DiscoverContexts(info *adb.EntityInfo, exampleRows []int, params Params) []Context {
	//lint:ignore ctxpoll non-cancellable convenience wrapper over discoverContextsCtx
	out, _ := discoverContextsCtx(context.Background(), info, exampleRows, params, trace.Span{})
	return out
}

// discoverContextsCtx is DiscoverContexts with cooperative cancellation:
// ctx is checked before every basic and derived property's walk. The
// contexts come out property by property, basic properties first, each
// property's own contexts sorted by value. The rows the walks read and
// the probes made in their place are counted on sp.
func discoverContextsCtx(ctx context.Context, info *adb.EntityInfo, exampleRows []int, params Params, sp trace.Span) ([]Context, error) {
	if len(exampleRows) == 0 {
		return nil, nil
	}
	st := newExampleState(info, exampleRows, params)
	defer func() {
		sp.Add(trace.CounterRowsWalked, int64(st.walked))
		sp.Add(trace.CounterProbes, int64(st.probes))
	}()
	var out []Context
	for _, prop := range info.Basic {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		switch prop.Kind {
		case adb.Categorical:
			out = categoricalContexts(out, st, prop, params)
		case adb.Numeric:
			if f, ok := numericContext(prop, exampleRows); ok {
				out = append(out, Context{Filter: f, NumExamples: len(exampleRows)})
			}
		}
	}
	for _, prop := range info.Derived {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out = derivedContexts(out, st, prop, params)
	}
	return out, nil
}

// exampleState is the shared per-example lookup state of one context
// discovery: per-degree-property normalization denominators computed
// once and reused by every derived property sharing that association
// (instead of re-deriving them per property as the scan-based pipeline
// did), and the intersection scratch every property walk reuses.
type exampleState struct {
	info *adb.EntityInfo
	rows []int
	// byRow lists the examples' indexes in row order: probes of one
	// posting list in row order walk it forward.
	byRow []int
	// degrees memoizes, per degree property, the per-example total
	// association counts.
	degrees map[*adb.DerivedProperty][]float64
	// link names the first-fact link whose walks sc.reads, seed and
	// sc.probers weigh: the derived properties of one link, which the
	// property order keeps together, read the same fact rows.
	link [2]string
	seed int
	sc   ctxScratch
	// walked counts the source rows the walks read, probes the posting-
	// and pair-list probes made in their place.
	walked, probes int
}

// ctxScratch is the reusable working memory of one property's context
// intersection (see categoricalContexts and derivedContexts).
type ctxScratch struct {
	codes   []int32 // also the working memory of a derived walk
	reads   []int   // per example, the rows its walk reads (SourceRows)
	probers []int   // the examples that probe a derived property's pairs
	counts  []adb.CodeCount
	aggs    []sharedAssoc
}

func newExampleState(info *adb.EntityInfo, exampleRows []int, params Params) *exampleState {
	st := &exampleState{info: info, rows: exampleRows}
	st.byRow = make([]int, len(exampleRows))
	for i := range exampleRows {
		st.byRow[i] = i
	}
	slices.SortFunc(st.byRow, func(a, b int) int { return exampleRows[a] - exampleRows[b] })
	if params.NormalizeAssociation {
		st.degrees = make(map[*adb.DerivedProperty][]float64)
	}
	return st
}

// degreesFor returns the per-example degree (total association count)
// vector for the given degree property, computing it once.
func (st *exampleState) degreesFor(degree *adb.DerivedProperty) []float64 {
	if degree == nil {
		return nil
	}
	if d, ok := st.degrees[degree]; ok {
		return d
	}
	d := make([]float64, len(st.rows))
	for i, row := range st.rows {
		d[i] = float64(degree.Degree(row))
	}
	st.degrees[degree] = d
	return d
}

// walks records in the scratch how many rows each example's walk reads
// (sourceRows of its row) and returns them with the example that reads
// the fewest, which seeds a property's shared set.
func (st *exampleState) walks(sourceRows func(row int) int) (reads []int, seed int) {
	reads = slices.Grow(st.sc.reads[:0], len(st.rows))
	for i, row := range st.rows {
		if reads = append(reads, sourceRows(row)); reads[i] < reads[seed] {
			seed = i
		}
	}
	st.sc.reads = reads
	return reads, seed
}

// categoricalContexts appends the shared-value contexts of a categorical
// basic property to out. The value sets intersect as dictionary codes
// with no map and no per-value object. The example whose walk reads the
// fewest rows seeds the shared set with its codes, sorted and
// deduplicated in the scratch; every other example, in row order, then
// drops the shared codes it lacks, by whichever reads less: a walk of its
// own codes (a binary search each), or a probe of each shared code's
// posting list — an entity linked to hundreds of others costs hundreds
// of reads to walk, and probes in row order move forward through a
// list. Codes decode to strings only when a filter is emitted, in the
// dictionary's rank order.
func categoricalContexts(out []Context, st *exampleState, prop *adb.BasicProperty, params Params) []Context {
	sc := &st.sc
	reads, seed := st.walks(prop.SourceRows)
	shared := prop.AppendValueCodes(sc.codes[:0], st.rows[seed])
	st.walked += reads[seed]
	slices.Sort(shared)
	shared = slices.Compact(shared)
	posts := prop.Postings()
	for _, i := range st.byRow {
		if len(shared) == 0 {
			break
		}
		if i == seed {
			continue
		}
		row := st.rows[i]
		if reads[i] > len(shared) {
			st.probes += len(shared)
			shared = slices.DeleteFunc(shared, func(c int32) bool { return !posts.Contains(int(c), uint32(row)) })
			continue
		}
		// The example's codes go into the scratch past the shared ones.
		st.walked += reads[i]
		buf := prop.AppendValueCodes(shared, row)
		codes := buf[len(shared):]
		shared = buf[:len(shared)]
		slices.Sort(codes)
		shared = slices.DeleteFunc(shared, func(c int32) bool {
			_, ok := slices.BinarySearch(codes, c)
			return !ok
		})
	}
	sc.codes = shared
	if len(shared) > 0 {
		prop.Dict().SortCodes(shared)
		vals := prop.Dict().Values()
		filters := make([]Filter, len(shared))
		for i, c := range shared {
			f := &filters[i]
			f.Kind, f.Basic = BasicCategorical, prop
			f.onValue(vals, c)
			out = append(out, Context{Filter: f, NumExamples: len(st.rows)})
		}
		return out
	}
	if params.MaxDisjunction == 0 || prop.MultiValued {
		return out
	}
	// Disjunction extension: no single shared value — consider the set
	// of distinct values the examples take, if small enough.
	distinct := sc.codes[:0]
	for i, row := range st.rows {
		// The row's codes go past the distinct ones; its first stays.
		st.walked += reads[i]
		buf := prop.AppendValueCodes(distinct, row)
		if len(buf) == len(distinct) {
			return out // an example lacks the property: no valid filter
		}
		distinct = buf[:len(distinct)+1]
	}
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	sc.codes = distinct
	if len(distinct) < 2 || len(distinct) > params.MaxDisjunction {
		return out
	}
	prop.Dict().SortCodes(distinct)
	vals := prop.Dict().Values()
	values := make([]string, len(distinct))
	for i, c := range distinct {
		values[i] = vals[c]
	}
	return append(out, Context{
		Filter:      &Filter{Kind: BasicCategorical, Basic: prop, Values: values, codes: slices.Clone(distinct)},
		NumExamples: len(st.rows),
	})
}

// numericContext emits the tightest-range context for a numeric basic
// property; the range is minimal by Definition 3.2 (shrinking either
// bound would exclude an example).
func numericContext(prop *adb.BasicProperty, exampleRows []int) (*Filter, bool) {
	lo, hi := 0.0, 0.0
	for i, row := range exampleRows {
		v, ok := prop.NumValue(row)
		if !ok {
			return nil, false
		}
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return &Filter{Kind: BasicNumeric, Basic: prop, Lo: lo, Hi: hi}, true
}

// sharedAssoc is one value every example so far is associated with: its
// code, and the minimum strength and normalized strength among them.
type sharedAssoc struct {
	code     int32
	minCount int
	minFrac  float64
}

// compareCode orders a shared association against a value code.
func (a sharedAssoc) compareCode(code int32) int { return int(a.code) - int(code) }

// derivedContexts appends the contexts of a derived property to out: one
// per value that every example is associated with, at the minimum
// observed strength θmin (§6.1.2 "Derived property"). Normalization
// degrees come precomputed from the shared example state. The shared
// values intersect the way categoricalContexts' do: the example whose
// walk reads the fewest first-fact rows seeds them with its strengths,
// ascending by code — or, when that costs less, by a probe of the pair
// list (StrengthOfCode) of each value of the dictionary — and every
// other example keeps the shared values it has, by a probe of each, and
// lowers their minimums. A walked fact row costs about two probes (200
// against 100 ns at 4x), a domain is small (18 values at most in the
// IMDb schema), and an entity can hold over a thousand fact rows. Values
// decode to strings only when a filter is emitted.
func derivedContexts(out []Context, st *exampleState, prop *adb.DerivedProperty, params Params) []Context {
	var degree *adb.DerivedProperty
	if params.NormalizeAssociation {
		degree = st.info.DerivedByAttr(prop.Via + ":count")
	}
	degs := st.degreesFor(degree)
	frac := func(i, count int) float64 {
		if degs == nil || degs[i] <= 0 {
			return 0
		}
		return float64(count) / degs[i]
	}

	sc := &st.sc
	if link := [2]string{prop.Fact1, prop.Fact1EntityCol}; link != st.link {
		// Every example but the seed probes the pair list of each shared
		// value; the examples that read least, which lack values most,
		// probe first.
		reads, seed := st.walks(prop.SourceRows)
		probers := sc.probers[:0]
		for i := range st.rows {
			if i != seed {
				probers = append(probers, i)
			}
		}
		slices.SortFunc(probers, func(a, b int) int { return reads[a] - reads[b] })
		st.link, st.seed, sc.probers = link, seed, probers
	}
	reads, seed := sc.reads, st.seed
	shared := sc.aggs[:0]
	if values := prop.Dict().Len(); 2*reads[seed] > values {
		st.probes += values
		for code := range int32(values) {
			if count := prop.StrengthOfCode(st.rows[seed], code); count > 0 {
				shared = append(shared, sharedAssoc{code: code, minCount: count, minFrac: frac(seed, count)})
			}
		}
	} else {
		st.walked += reads[seed]
		sc.counts, sc.codes = prop.AppendCounts(sc.counts[:0], sc.codes, st.rows[seed])
		for _, cc := range sc.counts {
			shared = append(shared, sharedAssoc{code: cc.Code, minCount: cc.Count, minFrac: frac(seed, cc.Count)})
		}
	}
	kept := 0
values:
	for _, a := range shared {
		for _, i := range sc.probers {
			st.probes++
			count := prop.StrengthOfCode(st.rows[i], a.code)
			if count == 0 {
				continue values
			}
			a.minCount, a.minFrac = min(a.minCount, count), min(a.minFrac, frac(i, count))
		}
		shared[kept] = a
		kept++
	}
	shared = shared[:kept]
	sc.aggs = shared
	if len(shared) == 0 {
		return out
	}
	codes := sc.codes[:0]
	for _, a := range shared {
		codes = append(codes, a.code)
	}
	sc.codes = codes
	prop.Dict().SortCodes(codes)
	vals := prop.Dict().Values()
	filters := make([]Filter, len(codes))
	for i, code := range codes {
		at, _ := slices.BinarySearchFunc(shared, code, sharedAssoc.compareCode)
		f := &filters[i]
		f.Kind, f.Derivd, f.Theta = Derived, prop, shared[at].minCount
		f.onValue(vals, code)
		// Normalization needs the companion degree property; derived
		// properties without one (self-edge associations label their
		// degree differently) keep the absolute threshold.
		if params.NormalizeAssociation && degree != nil {
			f.NormUse = true
			f.ThetaN = shared[at].minFrac
			f.degree = degree
		}
		out = append(out, Context{Filter: f, NumExamples: len(st.rows)})
	}
	return out
}
