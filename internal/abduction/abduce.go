package abduction

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"squid/internal/adb"
	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/trace"
)

// Typed sentinel errors of the online phase; callers match them with
// errors.Is to distinguish bad input from genuine lookup misses.
var (
	// ErrNoExamples reports that DiscoverCtx was called with an empty
	// example set.
	ErrNoExamples = errors.New("no examples provided")
	// ErrNoEntities reports that no entity attribute of the database
	// contains every example value, so no base query exists.
	ErrNoEntities = errors.New("no entity attribute contains all examples")
)

// BaseQuery is the minimal project-join query Q* capturing the structure
// of the examples (§6.2): project Attr from the entity relation Entity.
// Semantic-context joins are appended during SQL rendering.
type BaseQuery struct {
	Entity string
	Attr   string
}

// Result is the outcome of query intent discovery for one base query.
type Result struct {
	Base BaseQuery
	// ExampleRows are the entity rows the examples resolved to (after
	// disambiguation).
	ExampleRows []int
	// Decisions holds the per-filter Algorithm 1 computation over the
	// full minimal valid filter set Φ.
	Decisions []FilterDecision
	// Filters is the selected subset ϕ ⊆ Φ.
	Filters []*Filter
	// OutputRows are the entity rows in Qϕ(D).
	OutputRows []int
	// Score is the unnormalized log posterior of the selected subset,
	// used to rank candidate base queries.
	Score float64

	info *adb.EntityInfo
}

// EntityInfo exposes the αDB entity the result is grounded in.
func (r *Result) EntityInfo() *adb.EntityInfo { return r.info }

// OutputValues projects the output rows onto the base query attribute:
// the non-NULL values, sorted, one per row (two entities of one name
// give the name twice). The rows' dictionary codes are collected, ordered
// by the dictionary's rank table (relation.Dict.SortCodes — integer
// work, no string is compared) and decoded once from one view of the
// values. The attribute is a TEXT column: base queries come from entity
// lookup (index.IndexSet.CommonColumns), which reads nothing else.
func (r *Result) OutputValues() []string {
	col := r.info.Rel().Column(r.Base.Attr)
	codes := make([]int32, 0, len(r.OutputRows))
	for _, row := range r.OutputRows {
		if c := col.Code(row); c != relation.NoCode {
			codes = append(codes, c)
		}
	}
	dict := col.Dict()
	dict.SortCodes(codes)
	vals := dict.Values()
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = vals[c]
	}
	return out
}

// abduceForEntityCtx runs the full online pipeline for examples already
// resolved to rows of one entity relation: context discovery, Algorithm
// 1, and output computation. ctx is consulted between candidate-filter
// evaluations and before each selected filter's row set, so a canceled
// context aborts a long abduction mid-flight instead of after the fact.
//
// sp is the candidate's trace span (or the zero Span): each pipeline
// phase — context discovery, selectivity prefetch, Algorithm 1, row-set
// prefetch, intersection — nests one child span under it, so a traced
// discovery attributes its time phase by phase. Span structure depends
// only on the candidate's data.
func abduceForEntityCtx(ctx context.Context, info *adb.EntityInfo, base BaseQuery, exampleRows []int, params Params, sp trace.Span) (*Result, error) {
	cs := sp.Child(trace.PhaseContexts, "")
	contexts, err := discoverContextsCtx(ctx, info, exampleRows, params, cs)
	cs.Add(trace.CounterProperties, int64(len(info.Basic)+len(info.Derived)))
	cs.Add(trace.CounterContexts, int64(len(contexts)))
	cs.End()
	if err != nil {
		return nil, err
	}
	decisions, selected, err := abduceCtx(ctx, contexts, params, sp)
	if err != nil {
		return nil, err
	}
	chosen := make(map[*Filter]bool, len(selected))
	for _, f := range selected {
		chosen[f] = true
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Fetch the selected filters' row bitsets before the intersection
	// cascade. Each selected filter gets its own rowset span (labeled
	// with the filter), so cache behavior is attributed per property.
	rs := sp.Child(trace.PhaseRows, "")
	for _, f := range selected {
		if err := ctx.Err(); err != nil {
			rs.End()
			return nil, err
		}
		f.RowSetUnder(rs)
	}
	rs.End()
	is := sp.Child(trace.PhaseIntersect, "")
	output := IntersectRows(info, selected)
	is.Add(trace.CounterSelected, int64(len(selected)))
	is.Add(trace.CounterRows, int64(len(output)))
	is.End()
	return &Result{
		Base:        base,
		ExampleRows: exampleRows,
		Decisions:   decisions,
		Filters:     selected,
		OutputRows:  output,
		Score:       LogPosteriorScore(decisions, chosen),
		info:        info,
	}, nil
}

// DiscoverCtx maps raw example strings to candidate entity columns via
// the normal and code indexes (index.IndexSet.CommonColumns), resolves
// ambiguity with the provided resolver, abduces a query per candidate
// base query, and returns the results ranked by posterior score (best
// first). It returns an error when no entity column contains all
// examples.
//
// The resolver decides which candidate row each ambiguous example maps
// to; pass nil to take the first candidate (disambiguation lives in
// internal/disambig and is injected by the public API).
//
// Discovery runs against one immutable αDB epoch (adb.AlphaDB.Snapshot
// returns the current one): holding the pointer IS the epoch pin. No
// lock is taken, concurrent writers can never stall the abduction, and
// every lookup — example resolution, selectivity, row sets — answers
// from exactly the state the epoch was published with.
//
// The discovery runs on its caller's goroutine. ctx.Err() is checked
// before every candidate base query and, inside each abduction, before
// every property walk, selectivity, decision and row set, so canceling
// the context makes even a single long discovery return promptly with
// ctx's error (wrapped; match it with errors.Is). Callers that want
// many discoveries at once fan them out themselves (squid's
// System.DiscoverBatch).
func DiscoverCtx(ctx context.Context, a *adb.Epoch, examples []string, params Params, resolver Resolver) ([]*Result, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("abduction: %w", ErrNoExamples)
	}
	sp := trace.SpanFrom(ctx)
	res := sp.Child(trace.PhaseResolve, "")
	matches := a.CommonColumns(examples)
	res.Add(trace.CounterCandidates, int64(len(matches)))
	res.End()
	var results []*Result
	for _, m := range matches {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("abduction: %w", err)
		}
		info := a.Entity(m.Key.Relation)
		if info == nil {
			continue // match in a non-entity relation (e.g. dimension)
		}
		rows := resolveRows(info, m, resolver, params)
		if rows == nil {
			continue
		}
		cand := trace.Span{}
		if sp.Active() {
			cand = sp.Child(trace.PhaseCandidate, m.Key.Relation+"."+m.Key.Column)
		}
		r, err := abduceForEntityCtx(ctx, info, BaseQuery{Entity: m.Key.Relation, Attr: m.Key.Column}, rows, params, cand)
		cand.End()
		if err != nil {
			return nil, fmt.Errorf("abduction: %w", err)
		}
		results = append(results, r)
	}
	if len(results) == 0 {
		// Dimension fallback (IQ7-style intents): the examples match a
		// property relation only; the abduced query is the plain
		// projection with no filters.
		for _, m := range matches {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("abduction: %w", err)
			}
			info := a.EphemeralEntity(m.Key.Relation)
			if info == nil {
				continue
			}
			rows := resolveRows(info, m, nil, params)
			if rows == nil {
				continue
			}
			all := make([]int, info.NumRows)
			for i := range all {
				all[i] = i
			}
			results = append(results, &Result{
				Base:        BaseQuery{Entity: m.Key.Relation, Attr: m.Key.Column},
				ExampleRows: rows,
				OutputRows:  all,
				info:        info,
			})
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("abduction: %w (%d examples)", ErrNoEntities, len(examples))
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	return results, nil
}

// Resolver picks one row per example from the ambiguity candidates.
type Resolver func(info *adb.EntityInfo, candidates [][]int, params Params) []int

// resolveRows applies the resolver (or first-candidate fallback) to an
// index match.
func resolveRows(info *adb.EntityInfo, m index.ColumnMatch, resolver Resolver, params Params) []int {
	if resolver != nil && m.Ambiguous() {
		return resolver(info, m.Rows, params)
	}
	rows := make([]int, len(m.Rows))
	for i, cands := range m.Rows {
		if len(cands) == 0 {
			return nil
		}
		rows[i] = cands[0]
	}
	return rows
}
