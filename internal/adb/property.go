// Package adb implements SQuID's offline module: it turns a relational
// database plus administrator metadata (which relations are entities,
// which are direct properties) into an abduction-ready database (αDB).
// The αDB discovers fact tables from key-foreign-key edges, materializes
// derived relations such as persontogenre(person_id, genre_id, count)
// (Fig 5 / query Q6 of the paper), precomputes selectivity statistics for
// every basic and derived semantic property, and builds the inverted
// column index used for entity lookup (§5).
//
// Categorical statistics are dictionary-encoded: every property keys its
// per-value counts and posting lists by the int32 codes of the source
// column's dictionary, so property scans and row-set computation compare
// integers; strings appear only at the API boundary.
package adb

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/trace"
)

// PropKind distinguishes categorical from numeric semantic properties.
type PropKind int

const (
	// Categorical properties produce equality (or disjunctive IN)
	// filters, e.g. gender = Male.
	Categorical PropKind = iota
	// Numeric properties produce range filters, e.g. 50 ≤ age ≤ 90.
	Numeric
)

// PathType identifies how a basic property value is reached from its
// entity.
type PathType int

const (
	// Direct means the value is a column of the entity relation itself
	// (person.gender).
	Direct PathType = iota
	// FKDim means the entity has a foreign key into a dimension
	// relation holding the value (person.country_id → country.name).
	FKDim
	// FactDim means a fact table associates the entity with a
	// dimension relation (movie ← movietogenre → genre); such
	// properties are multi-valued per entity.
	FactDim
	// Degree is the pseudo-property counting associated entities
	// (number of movies a person appears in); only used by derived
	// properties.
	Degree
	// AttrTable means a side table holds (entity_fk, value) pairs
	// directly, like research(aid, interest) in Fig 1 of the paper;
	// such properties are multi-valued per entity.
	AttrTable
)

// AccessPath records how to navigate from an entity row to a property
// value; sqlgen uses it to render join paths and the builder uses it to
// extract values.
type AccessPath struct {
	Type PathType
	// Column is the entity column holding the value (Direct) or the
	// entity's FK column (FKDim).
	Column string
	// Fact names the fact relation and its two FK columns (FactDim).
	Fact          string
	FactEntityCol string
	FactDimCol    string
	// Dim names the dimension relation, its primary key, and the
	// display/value column (FKDim, FactDim).
	Dim         string
	DimPK       string
	DimValueCol string
}

// BasicProperty is a semantic property affiliated with an entity directly
// (§3.1): a direct attribute, an FK dimension attribute, or a fact-table
// dimension attribute.
type BasicProperty struct {
	Entity string
	// Attr is the display attribute name used in filters and contexts,
	// e.g. "gender", "genre", "country".
	Attr   string
	Kind   PropKind
	Access AccessPath

	// MultiValued reports whether one entity can hold several values
	// (only FactDim paths).
	MultiValued bool

	// dict is the dictionary of the source column the property's
	// values come from; every categorical statistic below is keyed by
	// its int32 codes.
	dict *relation.Dict
	// The categorical statistic is two flat 4-byte layouts, each an
	// immutable base plus the tail this epoch's writers added since the
	// last fold (index.Jagged, index.Postings): no slice header per
	// entity or per value, and a fact insert copies at most one entity's
	// few codes, never a value's posting list.
	//
	// valsByRow lists each entity row's value codes in the order the
	// source rows carry them, repeats included, as the file stores them
	// (single element for single-valued properties). catRows[code] is
	// the set of rows of the distinct entities exhibiting the value — its
	// size is the value's entity count, ψ's numerator; the base run is
	// ascending, the rows added since the fold follow in insertion order,
	// and every reader treats the two as one set. numValues counts codes
	// with a non-empty list — the property's distinct-value cardinality
	// (the dictionary can hold values this property never exhibits).
	valsByRow index.Jagged
	catRows   index.Postings[uint32]
	numValues int

	// The numeric statistic is the column itself — every numeric
	// property is Direct, and col is this epoch's column of the entity
	// relation — plus order, the rows that hold a value sorted by value:
	// ψ of a range is two binary searches, its rows are runs of the
	// order. A cell holds a value when it is neither NULL nor NaN (see
	// numCell). The order within one value is unspecified.
	col   *relation.Column
	order index.Chunked[uint32]

	numEntities int
	memo        *rowSetMemo
}

// NumEntities returns |R|, the selectivity denominator.
func (p *BasicProperty) NumEntities() int { return p.numEntities }

// cloneForWrite returns a copy-on-write clone for one epoch's writer
// generation g: the scalar statistics and the numeric order's header
// are copied — the order copies its chunk table or a chunk when g first
// writes into it, and shares the rest with the retired epoch — the
// categorical lists clone their tails (or fold them into a fresh base),
// and the memo starts empty (see rowSetMemo).
func (p *BasicProperty) cloneForWrite(g *index.Gen) *BasicProperty {
	q := *p
	q.valsByRow = p.valsByRow.Clone(g)
	q.catRows = p.catRows.Clone(g)
	q.memo = newRowSetMemo(p.memo.cache)
	return &q
}

// Dict returns the value dictionary the property's codes index into.
func (p *BasicProperty) Dict() *relation.Dict { return p.dict }

// DecodeValue decodes a value code to its string.
func (p *BasicProperty) DecodeValue(code int32) string { return p.dict.Value(code) }

// LookupCode returns the code of a categorical value and whether the
// value exists in the property's dictionary.
func (p *BasicProperty) LookupCode(v string) (int32, bool) {
	if p.dict == nil {
		return 0, false
	}
	return p.dict.Lookup(v)
}

// ValueCodes returns the categorical value codes of the entity at row
// (nil when the entity has none), in source order with repeats. The
// slice is a view of αDB-internal storage — it allocates nothing, and
// probes no map unless a write since the last fold touched the row: do
// not mutate.
func (p *BasicProperty) ValueCodes(row int) []int32 {
	if p.Kind != Categorical {
		return nil
	}
	return p.valsByRow.At(row)
}

// Values returns the categorical values of the entity at row (nil when
// the entity has none).
func (p *BasicProperty) Values(row int) []string {
	codes := p.ValueCodes(row)
	if codes == nil {
		return nil
	}
	out := make([]string, len(codes))
	for i, c := range codes {
		out[i] = p.dict.Value(c)
	}
	return out
}

// numCell returns the cell of a numeric column at row and whether it
// holds a value: neither NULL nor NaN. No order places a NaN, so the
// order, a range context or a memo key must never hold one (a CSV load
// can carry one).
func numCell(col *relation.Column, row int) (float64, bool) {
	if col.IsNull(row) {
		return 0, false
	}
	if v := col.Float64(row); v == v {
		return v, true
	}
	return 0, false
}

// NumValue returns the numeric value of the entity at row.
func (p *BasicProperty) NumValue(row int) (float64, bool) {
	if p.Kind != Numeric {
		return 0, false
	}
	return numCell(p.col, row)
}

// insertNum re-points the property at the writer's column and places
// its new row, when the row holds a value, after the equal values of
// the order — the writer's generation copies the one chunk it touches.
func (p *BasicProperty) insertNum(g *index.Gen, col *relation.Column, row int) {
	p.col = col
	v, ok := numCell(col, row)
	if !ok {
		return
	}
	ci, off := p.order.Search(func(r uint32) bool { return col.Float64(int(r)) > v })
	p.order.InsertAt(g, ci, off, uint32(row))
}

// inRange locates the rows of the order whose value lies in [lo, hi]:
// they run from offset from of chunk ci to offset to of chunk cj, n of
// them.
func (p *BasicProperty) inRange(lo, hi float64) (ci, from, cj, to, n int) {
	if !(lo <= hi) || p.order.Len() == 0 {
		return 0, 0, 0, 0, 0
	}
	ci, from = p.order.Search(func(r uint32) bool { return p.col.Float64(int(r)) >= lo })
	cj, to = p.order.Search(func(r uint32) bool { return p.col.Float64(int(r)) > hi })
	n = to - from
	for c := ci; c < cj; c++ {
		n += len(p.order.Chunk(c))
	}
	return ci, from, cj, to, n
}

// NumRange returns the smallest and the largest value of a numeric
// property and the number of rows holding a value (zeros when none
// does).
func (p *BasicProperty) NumRange() (lo, hi float64, n int) {
	if n = p.order.Len(); n == 0 {
		return 0, 0, 0
	}
	first, last := p.order.Chunk(0), p.order.Chunk(p.order.NumChunks()-1)
	return p.col.Float64(int(first[0])), p.col.Float64(int(last[len(last)-1])), n
}

// addCatRow records that the entity at row exhibits code, which it did
// not before. The list gains the row in its tail (a row past the table
// or in the middle of the list alike): nothing is copied but the tail
// entry's growth.
func (p *BasicProperty) addCatRow(code int32, row int) {
	if p.catRows.Count(int(code)) == 0 {
		p.numValues++
	}
	p.catRows.AddRow(int(code), uint32(row))
}

// Postings exposes the per-value posting lists for reading. They are
// shared with every epoch since the last fold: do not mutate
// (epochmutate enforces it).
func (p *BasicProperty) Postings() *index.Postings[uint32] { return &p.catRows }

// CategoricalSelectivity returns ψ(φ⟨Attr,v,⊥⟩): the fraction of entities
// exhibiting value v.
func (p *BasicProperty) CategoricalSelectivity(v string) float64 {
	code, ok := p.LookupCode(v)
	if !ok {
		return 0
	}
	return p.SelectivityOfCode(code)
}

// SelectivityOfCode returns ψ(φ⟨Attr,v,⊥⟩) for a value code — the
// string-free fast path of the disambiguation scorer.
func (p *BasicProperty) SelectivityOfCode(code int32) float64 {
	if p.numEntities == 0 {
		return 0
	}
	return float64(p.catRows.Count(int(code))) / float64(p.numEntities)
}

// RangeSelectivity returns ψ(φ⟨Attr,[lo,hi],⊥⟩) as a difference of
// positions in the value order (§5 smart selectivity computation).
func (p *BasicProperty) RangeSelectivity(lo, hi float64) float64 {
	if p.numEntities == 0 {
		return 0
	}
	_, _, _, _, n := p.inRange(lo, hi)
	return float64(n) / float64(p.numEntities)
}

// DomainCoverage returns the fraction of the attribute's observed domain
// covered by [lo, hi] (Appendix A).
func (p *BasicProperty) DomainCoverage(lo, hi float64) float64 {
	least, most, _ := p.NumRange()
	span := most - least
	if span <= 0 {
		return 1
	}
	cov := (hi - lo) / span
	if cov < 0 {
		cov = 0
	}
	if cov > 1 {
		cov = 1
	}
	return cov
}

// CategoricalDomainCoverage returns the domain coverage of a k-value
// disjunctive filter over a categorical attribute: k / |distinct values|.
func (p *BasicProperty) CategoricalDomainCoverage(k int) float64 {
	if p.numValues == 0 {
		return 1
	}
	cov := float64(k) / float64(p.numValues)
	if cov > 1 {
		cov = 1
	}
	return cov
}

// postingsOf returns the posting list of value v as its ascending base
// run and the rows added since the last fold.
func (p *BasicProperty) postingsOf(v string) (base, tail []uint32) {
	code, ok := p.LookupCode(v)
	if !ok {
		return nil, nil
	}
	return p.catRows.Rows(int(code))
}

// EntityRowsWithValue returns the entity rows exhibiting categorical
// value v, ascending, in a fresh slice (nil when none) — for tests and
// diagnostics: the read path unions the postings straight into a row
// set (EntityRowSetWithAnyValue).
func (p *BasicProperty) EntityRowsWithValue(v string) []int {
	base, tail := p.postingsOf(v)
	if len(base)+len(tail) == 0 {
		return nil
	}
	out := make([]int, 0, len(base)+len(tail))
	for _, r := range base {
		out = append(out, int(r))
	}
	for _, r := range tail {
		out = append(out, int(r))
	}
	if len(tail) > 0 {
		slices.Sort(out)
	}
	return out
}

// EntityRowSetWithAnyValue returns the union of the per-value posting
// lists — the satisfying rows of a disjunctive IN filter — memoized
// under the canonical disjunction key (a single value is a one-element
// disjunction), with memo events attributed to sp. The set is sized by
// the lists' total length, ψ's numerator when the values do not overlap
// and an upper bound when they do, and takes the 4-byte postings as
// they are stored. A set the call had to build stays in the memo when
// store is set (rowSetMemo.rowSet says who may). The returned set is
// shared: do not mutate.
func (p *BasicProperty) EntityRowSetWithAnyValue(values []string, sp trace.Span, store bool) *index.RowSet {
	if len(values) == 0 {
		return index.NewRowSet(0, 0)
	}
	return p.memo.rowSet(SelKey{Value: disjunctionKey(values)}, sp, store, func() *index.RowSet {
		total := 0
		for _, v := range values {
			base, tail := p.postingsOf(v)
			total += len(base) + len(tail)
		}
		s := index.NewRowSet(p.numEntities, total)
		for _, v := range values {
			base, tail := p.postingsOf(v)
			s.AddAll(base)
			s.AddAll(tail)
		}
		sp.Add(trace.CounterCellsStreamed, int64(total))
		return s
	})
}

// disjunctionKey canonicalizes a disjunctive value set into a
// collision-free cache key: the values are sorted, so {a,b} and {b,a}
// share one entry, and each is length-prefixed, so no joiner byte can
// alias — values containing NUL (or any other separator) cannot
// collide the way a plain '\x00' join did.
func disjunctionKey(values []string) string {
	sorted := append([]string(nil), values...)
	sort.Strings(sorted)
	var b strings.Builder
	for _, v := range sorted {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// EntityRowSetInRange returns the entity rows whose numeric value lies
// in [lo, hi]: the runs of the value order between two binary searches,
// into a set sized by their count (ψ's numerator). There is one arm at
// every selectivity: into a dense set the runs cost about a nanosecond
// a member, in value order, and the row-order scan they replaced costs
// more than that a row (BenchmarkRowSetFill, unsorted against word), so
// the scan lost even at nine rows in ten. Memoized (kept on a miss when
// store is set), with memo events attributed to sp; do not mutate the
// returned set.
func (p *BasicProperty) EntityRowSetInRange(lo, hi float64, sp trace.Span, store bool) *index.RowSet {
	return p.memo.rowSet(SelKey{Lo: lo, Hi: hi}, sp, store, func() *index.RowSet {
		ci, from, cj, to, n := p.inRange(lo, hi)
		s := index.NewRowSet(p.numEntities, n)
		for c := ci; n > 0 && c <= cj; c++ {
			run := p.order.Chunk(c)
			if c == cj {
				run = run[:to]
			}
			if c == ci {
				run = run[from:]
			}
			s.AddAll(run)
		}
		sp.Add(trace.CounterCellsStreamed, int64(n))
		return s
	})
}

// NumDistinct returns the number of distinct values the property
// exhibits (categorical).
func (p *BasicProperty) NumDistinct() int { return p.numValues }

// DistinctValues returns the property's categorical domain, sorted.
func (p *BasicProperty) DistinctValues() []string {
	out := make([]string, 0, p.numValues)
	for code := range p.catRows.Len() {
		if p.catRows.Count(code) > 0 {
			out = append(out, p.dict.Value(int32(code)))
		}
	}
	sort.Strings(out)
	return out
}

// statsBytes returns the bytes of the property's per-row and per-value
// statistics, counted from lengths: the categorical lists' offsets,
// codes, postings and tails, and the numeric value order.
func (p *BasicProperty) statsBytes() int64 {
	vb, vt := p.valsByRow.ResidentBytes()
	cb, ct := p.catRows.ResidentBytes()
	return vb + vt + cb + ct + p.order.ByteSize()
}

// String renders the property for diagnostics.
func (p *BasicProperty) String() string {
	return fmt.Sprintf("%s.%s", p.Entity, p.Attr)
}

// valCount pairs an entity row with its association strength for one
// derived value.
type valCount struct {
	entityRow, count uint32
}

// DerivedProperty is an aggregate over a basic property of an associated
// entity (§3.1): e.g. for person, the number of Comedy movies they
// appear in. It is materialized as a derived relation
// (entity_id, value, count) in the αDB. Per-value statistics are keyed
// by the codes of the derived relation's value-column dictionary.
type DerivedProperty struct {
	Entity string
	// Via is the associated entity relation (movie for persontogenre).
	Via string
	// ViaPK is the primary key column of Via (for SQL rendering).
	ViaPK string
	// Attr is the display name, qualified by the association, e.g.
	// "movie:genre" or "movie:count" for the degree property.
	Attr string
	// Fact1 is the fact table linking Entity to Via, with its FK
	// column names.
	Fact1          string
	Fact1EntityCol string
	Fact1ViaCol    string
	// Target describes how the aggregated value is reached from Via
	// (Direct column, FKDim, FactDim, or Degree).
	Target AccessPath
	// RelName is the materialized derived relation name, e.g.
	// "persontogenre".
	RelName string

	rel      *relation.Relation
	byEntity *index.IntHash
	// codes[code] holds the statistics of one value (see codeStats).
	codes       index.Chunked[codeStats]
	numEntities int
	memo        *rowSetMemo
}

// codeStats is what a derived property knows about one value code.
type codeStats struct {
	// pairs lists the (entity row, strength) pairs sorted ascending by
	// entity row — the invariant behind the O(log n) StrengthOf lookup
	// and the merge-intersection of the abduction layer. The builder
	// emits rows in order; incremental bumps insert in place.
	pairs index.Chunked[valCount]
	// ge is the strength histogram in suffix-count form: ge[θ-1] is
	// the number of entities associated at strength ≥ θ, so its length
	// is the largest strength, ψ(φ⟨Attr,v,θ⟩) is one read, and a bump
	// from c to c+1 is ge[c]++. It is derived from pairs at build and
	// load, never stored.
	ge index.Chunked[int32]
}

// newCodeStats derives the histogram of a finished pair list.
func newCodeStats(pairs index.Chunked[valCount]) codeStats {
	maxCount := 0
	for ci := 0; ci < pairs.NumChunks(); ci++ {
		for _, vc := range pairs.Chunk(ci) {
			maxCount = max(maxCount, int(vc.count))
		}
	}
	ge := make([]int32, maxCount)
	for ci := 0; ci < pairs.NumChunks(); ci++ {
		for _, vc := range pairs.Chunk(ci) {
			ge[vc.count-1]++
		}
	}
	for i := maxCount - 2; i >= 0; i-- {
		ge[i] += ge[i+1]
	}
	return codeStats{pairs: pairs, ge: index.ChunkedOf(ge)}
}

// find locates entity row in the pair list: the chunk and offset where
// its pair is (found) or belongs (not found).
func (cs *codeStats) find(row int) (ci, off int, found bool) {
	ci, off = cs.pairs.Search(func(vc valCount) bool { return int(vc.entityRow) >= row })
	if ci < cs.pairs.NumChunks() {
		c := cs.pairs.Chunk(ci)
		found = off < len(c) && int(c[off].entityRow) == row
	}
	return ci, off, found
}

// NumEntities returns |R| for the owning entity relation.
func (p *DerivedProperty) NumEntities() int { return p.numEntities }

// PairBytes returns the bytes of the per-value statistics: the code
// table, every (entity row, strength) pair list and every strength
// histogram, counted from their lengths.
func (p *DerivedProperty) PairBytes() int64 {
	n := p.codes.ByteSize()
	for _, cs := range p.codes.All() {
		n += cs.pairs.ByteSize() + cs.ge.ByteSize()
	}
	return n
}

// cloneForWrite returns a copy-on-write clone for one epoch's writer
// (see BasicProperty.cloneForWrite): the per-code table, every pair
// list and every histogram are chunked vectors that copy what the
// writer's generation touches; relation and entity index are re-pointed
// by the writer when it privatizes them; the memo starts empty.
func (p *DerivedProperty) cloneForWrite() *DerivedProperty {
	q := *p
	q.memo = newRowSetMemo(p.memo.cache)
	return &q
}

// Relation returns the materialized derived relation.
func (p *DerivedProperty) Relation() *relation.Relation { return p.rel }

// valueDict returns the dictionary of the derived relation's value
// column, which keys every per-value statistic.
func (p *DerivedProperty) valueDict() *relation.Dict { return p.rel.Column("value").Dict() }

// Dict returns the value dictionary the property's codes index into.
func (p *DerivedProperty) Dict() *relation.Dict { return p.valueDict() }

// DecodeValue decodes a value code to its string.
func (p *DerivedProperty) DecodeValue(code int32) string { return p.valueDict().Value(code) }

// LookupCode returns the code of a derived value and whether it exists.
func (p *DerivedProperty) LookupCode(v string) (int32, bool) { return p.valueDict().Lookup(v) }

// statsOf returns the statistics of a code for reading (nil when the
// code is past the table: the dictionary can grow ahead of it).
func (p *DerivedProperty) statsOf(code int32) *codeStats {
	if int(code) < p.codes.Len() {
		return p.codes.Ref(int(code))
	}
	return nil
}

// Counts returns the per-value association strengths of the entity at
// the given row of the entity relation.
func (p *DerivedProperty) Counts(entityID int64) map[string]int {
	base, tail := p.byEntity.Rows(entityID)
	if len(base)+len(tail) == 0 {
		return nil
	}
	out := make(map[string]int, len(base)+len(tail))
	vcol, ccol := p.rel.Column("value"), p.rel.Column("count")
	for _, run := range [2][]uint32{base, tail} {
		for _, r := range run {
			out[vcol.Str(int(r))] = int(ccol.Int64(int(r)))
		}
	}
	return out
}

// CodeCount pairs a value code with an association strength.
type CodeCount struct {
	Code  int32
	Count int
}

// AppendCounts appends the per-value association strengths of an entity,
// keyed by value code, to dst and returns it — the form of Counts the
// abduction layer's code-based context discovery reads into a buffer it
// reuses from example to example. A value appears once per entity.
func (p *DerivedProperty) AppendCounts(dst []CodeCount, entityID int64) []CodeCount {
	base, tail := p.byEntity.Rows(entityID)
	if len(base)+len(tail) == 0 {
		return dst
	}
	vcol, ccol := p.rel.Column("value"), p.rel.Column("count")
	for _, run := range [2][]uint32{base, tail} {
		for _, r := range run {
			dst = append(dst, CodeCount{Code: vcol.Code(int(r)), Count: int(ccol.Int64(int(r)))})
		}
	}
	return dst
}

// Selectivity returns ψ(φ⟨Attr,v,θ⟩): the fraction of entities associated
// with value v at strength ≥ θ. Entities with no association count as 0.
func (p *DerivedProperty) Selectivity(v string, theta int) float64 {
	if p.numEntities == 0 {
		return 0
	}
	if theta <= 0 {
		return 1
	}
	code, ok := p.LookupCode(v)
	if !ok {
		return 0
	}
	return p.SelectivityOfCode(code, theta)
}

// SelectivityOfCode returns ψ(φ⟨Attr,v,θ⟩) for a value code — the
// string-free fast path of the disambiguation scorer.
func (p *DerivedProperty) SelectivityOfCode(code int32, theta int) float64 {
	if p.numEntities == 0 {
		return 0
	}
	if theta <= 0 {
		return 1
	}
	cs := p.statsOf(code)
	if cs == nil || theta > cs.ge.Len() {
		return 0
	}
	return float64(cs.ge.At(theta-1)) / float64(p.numEntities)
}

// EntityRowSetWithStrength returns the entity rows associated with
// value v at strength ≥ θ, in a set sized by the histogram's count
// (ge[θ-1], ψ's numerator); a θ past the largest strength is the empty
// set without a walk. Memoized (kept on a miss when store is set), with
// memo events attributed to sp; do not mutate the returned set.
func (p *DerivedProperty) EntityRowSetWithStrength(v string, theta int, sp trace.Span, store bool) *index.RowSet {
	return p.memo.rowSet(SelKey{Value: v, Theta: theta}, sp, store, func() *index.RowSet {
		code, ok := p.LookupCode(v)
		cs := p.statsOf(code)
		if !ok || cs == nil || theta > cs.ge.Len() {
			return index.NewRowSet(p.numEntities, 0)
		}
		count := cs.pairs.Len()
		if theta >= 1 {
			count = int(cs.ge.At(theta - 1))
		}
		s := index.NewRowSet(p.numEntities, count)
		for ci := 0; ci < cs.pairs.NumChunks(); ci++ {
			for _, vc := range cs.pairs.Chunk(ci) {
				if int(vc.count) >= theta {
					s.Add(int(vc.entityRow))
				}
			}
		}
		sp.Add(trace.CounterCellsStreamed, int64(cs.pairs.Len()))
		return s
	})
}

// EntityRowSetWithNormStrength returns the entity rows associated with
// value v at normalized strength ≥ θn, where each row's strength is
// divided by its degree (total association count) from the companion
// degree property; the set is sized by the value's pair count, an upper
// bound. Memoized (kept on a miss when store is set), with memo events
// attributed to sp; do not mutate the returned set.
func (p *DerivedProperty) EntityRowSetWithNormStrength(v string, thetaN float64, degree *DerivedProperty, sp trace.Span, store bool) *index.RowSet {
	if degree == nil {
		// No denominator: nothing satisfies a normalized threshold.
		return index.NewRowSet(0, 0)
	}
	return p.memo.rowSet(SelKey{Value: v, Lo: thetaN, Theta: -1}, sp, store, func() *index.RowSet {
		code, ok := p.LookupCode(v)
		cs := p.statsOf(code)
		if !ok || cs == nil {
			return index.NewRowSet(p.numEntities, 0)
		}
		s := index.NewRowSet(p.numEntities, cs.pairs.Len())
		for ci := 0; ci < cs.pairs.NumChunks(); ci++ {
			for _, vc := range cs.pairs.Chunk(ci) {
				if d := float64(degree.StrengthOf(int(vc.entityRow), degree.Via)); d > 0 && float64(vc.count)/d >= thetaN {
					s.Add(int(vc.entityRow))
				}
			}
		}
		sp.Add(trace.CounterCellsStreamed, int64(cs.pairs.Len()))
		return s
	})
}

// StrengthOfCode returns the association strength of the entity at row
// for the value code (0 when unassociated) by binary search over the
// row-sorted pair list.
func (p *DerivedProperty) StrengthOfCode(row int, code int32) int {
	cs := p.statsOf(code)
	if cs == nil {
		return 0
	}
	if ci, off, found := cs.find(row); found {
		return int(cs.pairs.Chunk(ci)[off].count)
	}
	return 0
}

// StrengthOf returns the association strength of the entity at row for
// value v (0 when unassociated).
func (p *DerivedProperty) StrengthOf(row int, v string) int {
	code, ok := p.LookupCode(v)
	if !ok {
		return 0
	}
	return p.StrengthOfCode(row, code)
}

// ValEntry pairs an entity row with its association strength.
type ValEntry struct {
	Row   int
	Count int
}

// ValueEntries returns every (entity row, strength) pair for value v;
// the abduction layer uses it for normalized association strength.
func (p *DerivedProperty) ValueEntries(v string) []ValEntry {
	code, ok := p.LookupCode(v)
	cs := p.statsOf(code)
	if !ok || cs == nil {
		return nil
	}
	out := make([]ValEntry, 0, cs.pairs.Len())
	for ci := 0; ci < cs.pairs.NumChunks(); ci++ {
		for _, vc := range cs.pairs.Chunk(ci) {
			out = append(out, ValEntry{Row: int(vc.entityRow), Count: int(vc.count)})
		}
	}
	return out
}

// MaxStrength returns the largest association strength observed for v.
func (p *DerivedProperty) MaxStrength(v string) int {
	code, ok := p.LookupCode(v)
	cs := p.statsOf(code)
	if !ok || cs == nil {
		return 0
	}
	return cs.ge.Len()
}

// DistinctValues returns the derived value domain, sorted.
func (p *DerivedProperty) DistinctValues() []string {
	var out []string
	for code := 0; code < p.codes.Len(); code++ {
		if p.codes.Ref(code).pairs.Len() > 0 {
			out = append(out, p.valueDict().Value(int32(code)))
		}
	}
	sort.Strings(out)
	return out
}

// String renders the property for diagnostics.
func (p *DerivedProperty) String() string {
	return fmt.Sprintf("%s.%s [%s]", p.Entity, p.Attr, p.RelName)
}
