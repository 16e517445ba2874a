// Package adb implements SQuID's offline module: it turns a relational
// database plus administrator metadata (which relations are entities,
// which are direct properties) into an abduction-ready database (αDB).
// The αDB discovers fact tables from key-foreign-key edges, derives
// relations such as persontogenre(person_id, genre_id, count) (Fig 5 /
// query Q6 of the paper) as per-value pair lists, which the engine reads
// as views, precomputes selectivity statistics for
// every basic and derived semantic property, and builds what entity
// lookup reads in place of the paper's inverted column index (§5): a
// code index of every TEXT column and its dictionary's normal index
// (index.IndexSet.CommonColumns).
//
// Categorical statistics are dictionary-encoded: every property keys its
// per-value counts and posting lists by the int32 codes of the source
// column's dictionary, so property scans and row-set computation compare
// integers; strings appear only at the API boundary.
package adb

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unsafe"

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
	// path is the categorical property's access path resolved against
	// the relations and resident hash indexes of its epoch: it answers
	// an entity row's codes (AppendValueCodes) by walking them, so no
	// per-row copy of the base data is kept. Build and Load resolve it
	// once; a writer re-points every property it clones at its publish.
	path pairReader
	// catRows is the categorical statistic: catRows[code] is the set of
	// rows of the distinct entities exhibiting the value — its size is
	// the value's entity count, ψ's numerator — an immutable base plus
	// the rows this epoch's writers added since the last fold
	// (index.Postings): no slice header per value, and a fact insert
	// never copies a value's posting list. A value more than one entity
	// in 32 exhibits is a bitmap over the entity rows in the base, any
	// other an ascending run of 4-byte rows; the rows added since the
	// fold follow in insertion order, and every reader reads the two as
	// one list (index.List). numValues counts codes with a non-empty
	// list — the property's distinct-value cardinality (the dictionary
	// can hold values this property never exhibits).
	catRows   index.Postings
	numValues int

	// The numeric statistic is the column itself — every numeric
	// property is Direct, and col is this epoch's column of the entity
	// relation — plus order, the rows that hold a value sorted by value:
	// ψ of a range is two binary searches, its rows are runs of the
	// order. A cell holds a value when it is neither NULL nor NaN (see
	// numCell). The order within one value is unspecified.
	col   *relation.Column
	order relation.Chunked[uint32]

	numEntities int
	memo        *rowSetMemo
}

// NumEntities returns |R|, the selectivity denominator.
func (p *BasicProperty) NumEntities() int { return p.numEntities }

// cloneForWrite returns a copy-on-write clone for one epoch's writer
// generation g: the scalar statistics and the numeric order's header
// are copied — the order copies its chunk table or a chunk when g first
// writes into it, and shares the rest with the retired epoch — the
// posting lists clone their tail (or fold it into a fresh base), the
// path still reads the base epoch until the writer re-points it, and
// the memo starts empty (see rowSetMemo).
func (p *BasicProperty) cloneForWrite(g *relation.Gen) *BasicProperty {
	q := *p
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

// AppendValueCodes appends the categorical value codes of the entity at
// row to dst and returns it (nothing when the entity has none): the
// codes the build's fold gives the row, in source order with repeats,
// read by walking the access path over the relations and resident
// indexes of the property's epoch. It allocates nothing once dst has
// room, so a caller passes the same scratch from row to row.
func (p *BasicProperty) AppendValueCodes(dst []int32, row int) []int32 {
	if p.Kind != Categorical {
		return dst
	}
	return p.path.appendCodes(dst, row)
}

// SourceRows returns how many rows of the relations AppendValueCodes
// reads for the entity at row of a categorical property: an upper bound
// on its codes, and what a caller weighs a walk by against probing the
// posting lists.
func (p *BasicProperty) SourceRows(row int) int { return p.path.sourceRows(row) }

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
func (p *BasicProperty) insertNum(g *relation.Gen, col *relation.Column, row int) {
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
func (p *BasicProperty) Postings() *index.Postings { return &p.catRows }

// SelectivityOfCode returns ψ(φ⟨Attr,v,⊥⟩), the fraction of entities
// exhibiting the value of code (0 for NoCode).
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

// EntityRowSetWithAnyCode returns the union of the posting lists of
// the value codes (NoCode names no value) — the satisfying rows of a
// disjunctive IN filter — memoized under the canonical disjunction key
// of their values (a single value is a one-element disjunction), with
// memo events attributed to sp. The set is sized by the lists' total
// length, ψ's numerator when the values do not overlap and an upper
// bound when they do, and takes each list as it is stored: a common
// value's bitmap a word at a time, a run's 4-byte rows.
// A set the call had to build stays in the memo when store is set
// (rowSetMemo.rowSet says who may). The returned set is shared: do not
// mutate.
func (p *BasicProperty) EntityRowSetWithAnyCode(codes []int32, sp trace.Span, store bool) *index.RowSet {
	if len(codes) == 0 {
		return index.NewRowSet(0, 0)
	}
	return p.memo.rowSet(SelKey{Value: disjunctionKey(p.dict, codes)}, sp, store, func() *index.RowSet {
		total := 0
		for _, c := range codes {
			total += p.catRows.Count(int(c))
		}
		s := index.NewRowSet(p.numEntities, total)
		for _, c := range codes {
			s.AddList(p.catRows.Rows(int(c)))
		}
		sp.Add(trace.CounterCellsStreamed, int64(total))
		return s
	})
}

// disjunctionKey canonicalizes the values of a disjunctive code set into
// a collision-free cache key: the values are sorted, so {a,b} and {b,a}
// share one entry, and each is length-prefixed, so no joiner byte can
// alias — values containing NUL (or any other separator) cannot
// collide the way a plain '\x00' join did.
func disjunctionKey(dict *relation.Dict, codes []int32) string {
	vals := dict.Values()
	sorted := make([]string, 0, len(codes))
	for _, c := range codes {
		if c != relation.NoCode {
			sorted = append(sorted, vals[c])
		}
	}
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

// statsBytes returns the bytes of the property's per-value statistics,
// counted from lengths: the posting lists' offsets, rows and tails, and
// the numeric value order.
func (p *BasicProperty) statsBytes() int64 {
	cb, ct := p.catRows.ResidentBytes()
	return cb + ct + p.order.ByteSize()
}

// String renders the property for diagnostics.
func (p *BasicProperty) String() string {
	return fmt.Sprintf("%s.%s", p.Entity, p.Attr)
}

// valCount pairs an entity row with its exact association strength for
// one derived value: an entry of a pair list's side table (codeStats).
type valCount struct {
	entityRow, count uint32
}

// DerivedProperty is an aggregate over a basic property of an associated
// entity (§3.1): e.g. for person, the number of Comedy movies they
// appear in. It is the paper's derived relation (entity_id, value,
// count) held as its per-value pair lists; the engine reads the
// relation as a view over them (View). Per-value statistics are keyed
// by the codes of the dictionary the values come from.
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
	// RelName is the derived relation's name, e.g. "persontogenre".
	RelName string

	// dict is the dictionary the codes index into: the target's source
	// column's, shared with the base relations, or for Degree one of
	// the property's own holding Via's name.
	dict *relation.Dict
	// walk is the property's reader resolved against its epoch: it
	// answers an entity row's strengths (AppendCounts) by walking its
	// first-fact rows. Build and Load resolve it once; a writer
	// re-points every property it clones at its publish.
	walk derivedReader
	// codes[code] holds the statistics of one value (see codeStats).
	codes relation.Chunked[codeStats]
	// dense counts the values laid out as dense columns (denseAt).
	dense       int
	numEntities int
	memo        *rowSetMemo
	// schema is the derived relation's columns and keys with no row
	// (View.Schema).
	schema *relation.Relation
}

// saturated is the strength byte of a pair whose strength is 255 or
// more; its exact strength is in the value's side table.
const saturated = math.MaxUint8

// denseAt reports whether a value of the given number of pairs over
// entities entities is laid out dense: when its pairs number at least a
// fifth of the entities, the byte an entity of a dense column costs no
// more than the five bytes a pair of a list.
func denseAt(pairs, entities int) bool { return pairs > 0 && 5*pairs >= entities }

// codeStats is what a derived property knows about one value code: its
// (entity row, strength) pairs, in the layout that cost fewer bytes when
// the value was laid out from nothing (denseAt, materializeDerived), a
// side table, and the histogram of their strengths. A writer keeps a
// value's layout; a value it adds starts as a list.
//
//   - A pair list (dense false) is rows and strengths, two vectors in
//     step.
//   - A dense column (dense true) is strengths alone, indexed by entity
//     row: 0 for an entity the value is not associated with, and for
//     the rows past its end, which a writer appends when it first bumps
//     one. rows is empty.
type codeStats struct {
	// rows lists a pair list's entity rows sorted ascending — the
	// invariant behind find and the merge-intersection of the
	// abduction layer. The builder emits rows in order; incremental
	// bumps insert in place.
	rows relation.Chunked[uint32]
	// strengths holds one byte a pair — a strength of 255 or more reads
	// saturated. In a list strengths[i] is the strength of rows[i], with
	// the chunk boundaries of rows, since every write that adds a pair —
	// the build's Append, an insert's InsertAt — adds it to both at the
	// same place. In a dense column strengths[r] is entity row r's, every
	// chunk full but the last.
	strengths relation.Chunked[uint8]
	dense     bool
	// over is the side table: the exact strength of every pair whose
	// byte is saturated, sorted by entity row. It holds a few entries a
	// value (173 over 184 values at 4x the default IMDb), so a writer
	// replaces it whole instead of sharing chunks of it.
	over []valCount
	// ge is the strength histogram in suffix-count form: ge[θ-1] is
	// the number of entities associated at strength ≥ θ, so its length
	// is the largest strength, ψ(φ⟨Attr,v,θ⟩) is one read, and a bump
	// from c to c+1 is ge[c]++. It is derived from the pairs at build
	// and load, never stored.
	ge relation.Chunked[int32]
}

// appendPair adds a pair past the last one of a list (build: entity
// rows come in order).
func (cs *codeStats) appendPair(row uint32, count int) {
	cs.rows.Append(nil, row)
	cs.strengths.Append(nil, uint8(min(count, saturated)))
	cs.noteOver(row, count)
}

// noteOver adds the side-table entry of a pair the build appends, when
// its strength saturates the byte.
func (cs *codeStats) noteOver(row uint32, count int) {
	if count >= saturated {
		cs.over = append(cs.over, valCount{entityRow: row, count: uint32(count)})
	}
}

// pairs returns the number of entities associated with the value.
func (cs *codeStats) pairs() int {
	if !cs.dense {
		return cs.rows.Len()
	}
	if cs.ge.Len() == 0 {
		return 0
	}
	return int(cs.ge.At(0))
}

// byteOnes has a one in every byte; byteHigh the high bit of every byte.
const (
	byteOnes = 0x0101010101010101
	byteHigh = 0x8080808080808080
)

// bytesAtLeast returns the high bit of every byte of w that is at least
// the same byte of t, eight unsigned compares at once: the high bits
// decide where they differ, and where they agree the low seven bits'
// difference, which no byte borrows across, does.
func bytesAtLeast(w, t uint64) uint64 {
	return (w&^t | ^(w^t)&((w|byteHigh)-(t&^byteHigh))) & byteHigh
}

// gatherHigh packs the high bits of the eight bytes of m, as
// bytesAtLeast returns them, into the low eight bits: bit i is byte i's.
func gatherHigh(m uint64) uint64 { return (m >> 7) * 0x0102040810204080 >> 56 }

// word8 reads eight bytes of b from i as a little-endian word, zeros
// past its end.
func word8(b []uint8, i int) uint64 {
	if i+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[i:])
	}
	var w uint64
	for k, x := range b[i:] {
		w |= uint64(x) << (8 * k)
	}
	return w
}

// all iterates the pairs in entity-row order with their exact
// strengths: the k-th saturated byte is the k-th side-table entry. A
// dense column is read a word at a time, its zero bytes skipped by mask.
func (cs *codeStats) all() iter.Seq2[uint32, int] {
	return func(yield func(uint32, int) bool) {
		k, at := 0, 0
		exact := func(b uint8) int {
			if b != saturated {
				return int(b)
			}
			k++
			return int(cs.over[k-1].count)
		}
		for ci := range cs.strengths.NumChunks() {
			strengths := cs.strengths.Chunk(ci)
			if !cs.dense {
				for i, row := range cs.rows.Chunk(ci) {
					if !yield(row, exact(strengths[i])) {
						return
					}
				}
				continue
			}
			for j := 0; j < len(strengths); j += 8 {
				for m := bytesAtLeast(word8(strengths, j), byteOnes); m != 0; m &= m - 1 {
					i := j + bits.TrailingZeros64(m)/8
					if !yield(uint32(at+i), exact(strengths[i])) {
						return
					}
				}
			}
			at += len(strengths)
		}
	}
}

// denseRows adds to s the entity rows of a dense column whose strength
// byte is at least θ (1 ≤ θ ≤ 255), eight bytes a step: a high-bit mask
// of the bytes ≥ θ, gathered into eight set bits, and 64 rows a word of
// the set. A chunk starts on a multiple of 256 rows, so every word
// does. A whole 64-byte block is read through an array pointer, which
// drops word8's length test and takes a third off the scan
// (BenchmarkDerivedStrength); only a column's last block can be short.
func (cs *codeStats) denseRows(s *index.RowSet, theta int) {
	t := uint64(theta) * byteOnes
	at := 0
	for ci := range cs.strengths.NumChunks() {
		strengths := cs.strengths.Chunk(ci)
		for j := 0; j < len(strengths); j += 64 {
			var w uint64
			if j+64 <= len(strengths) {
				block := (*[64]uint8)(strengths[j : j+64])
				for k := 0; k < 64; k += 8 {
					w |= gatherHigh(bytesAtLeast(binary.LittleEndian.Uint64(block[k:k+8]), t)) << k
				}
			} else {
				for k := j; k < len(strengths); k += 8 {
					w |= gatherHigh(bytesAtLeast(word8(strengths, k), t)) << (k - j)
				}
			}
			if w != 0 {
				s.AddWord((at+j)>>6, w)
			}
		}
		at += len(strengths)
	}
}

// overAt returns where entity row row's entry is or belongs in the side
// table.
func (cs *codeStats) overAt(row uint32) (int, bool) {
	return slices.BinarySearchFunc(cs.over, row, func(vc valCount, r uint32) int { return cmp.Compare(vc.entityRow, r) })
}

// exact returns the exact strength of entity row row whose byte is b:
// the byte, or the row's side-table entry when the byte reads saturated.
func (cs *codeStats) exact(b uint8, row uint32) int {
	if b != saturated {
		return int(b)
	}
	i, _ := cs.overAt(row)
	return int(cs.over[i].count)
}

// setStrength sets the strength of entity row row, whose byte is at
// offset off of chunk ci, to c, which is not below its current
// strength. Below 255 that writes the byte: the writer's generation
// copies one 256-byte strength chunk. From 255 on the byte reads
// saturated and the side table, copied whole, takes the exact strength.
func (cs *codeStats) setStrength(g *relation.Gen, ci, off int, row uint32, c int) {
	if c < saturated {
		cs.strengths.SetAt(g, ci, off, uint8(c))
		return
	}
	if cs.strengths.Chunk(ci)[off] != saturated {
		cs.strengths.SetAt(g, ci, off, saturated)
	}
	vc := valCount{entityRow: row, count: uint32(c)}
	i, found := cs.overAt(vc.entityRow)
	g.Charge(len(cs.over) * int(unsafe.Sizeof(vc)))
	if found {
		cs.over = slices.Clone(cs.over)
		cs.over[i] = vc
	} else {
		cs.over = slices.Insert(slices.Clip(cs.over), i, vc)
	}
}

// insertPair inserts entity row row at strength 1 at offset off of
// chunk ci of a list, where find placed it: into both vectors, which
// split a full chunk alike.
func (cs *codeStats) insertPair(g *relation.Gen, ci, off int, row uint32) {
	cs.rows.InsertAt(g, ci, off, row)
	cs.strengths.InsertAt(g, ci, off, 1)
}

// find locates entity row in a pair list, whose rows lie below
// entities: the chunk and offset where its pair is (found) or belongs
// (not found). It reads the row vector alone, sixteen rows a cache
// line. A list's rows spread about evenly, so find starts where the
// row's rank would put it and steps to the exact place: to the last
// chunk whose first row is at most row, read from the chunk table alone,
// then within the chunk from the rank between its first row and the
// next chunk's. A probe reads about one line of rows, where a binary
// search over the chunks' last rows and then within one read a dozen.
func (cs *codeStats) find(row, entities int) (ci, off int, found bool) {
	r, n := uint32(row), cs.rows.NumChunks()
	if n == 0 || cs.rows.First(0) > r {
		return 0, 0, false
	}
	for ci = min(n-1, row*n/max(entities, 1)); cs.rows.First(ci) > r; ci-- {
	}
	for ci+1 < n && cs.rows.First(ci+1) <= r {
		ci++
	}
	c, lo, hi := cs.rows.Chunk(ci), cs.rows.First(ci), uint32(entities)
	if ci+1 < n {
		hi = cs.rows.First(ci + 1)
	}
	if r > lo && hi > lo {
		off = min(len(c)-1, int(uint64(r-lo)*uint64(len(c))/uint64(hi-lo)))
	}
	for off > 0 && c[off-1] >= r {
		off--
	}
	for off < len(c) && c[off] < r {
		off++
	}
	if off < len(c) {
		return ci, off, c[off] == r
	}
	if ci+1 < n {
		return ci + 1, 0, false
	}
	return ci, off, false
}

// NumEntities returns |R| for the owning entity relation.
func (p *DerivedProperty) NumEntities() int { return p.numEntities }

// PairBytes returns the bytes of the per-value statistics, counted
// from their lengths: the code table, and for every value its pairs —
// four bytes of entity row and one of strength a pair of a list, one
// byte an entity of a dense column, each vector with its chunk table,
// and eight bytes a side-table entry — and its strength histogram.
func (p *DerivedProperty) PairBytes() int64 {
	n := p.codes.ByteSize()
	for _, cs := range p.codes.All() {
		n += cs.rows.ByteSize() + cs.strengths.ByteSize() + int64(len(cs.over))*int64(unsafe.Sizeof(valCount{})) + cs.ge.ByteSize()
	}
	return n
}

// DenseValues returns how many of the property's values are laid out
// as dense columns, whose probe is one byte load; every other value's
// probe searches a pair list.
func (p *DerivedProperty) DenseValues() int { return p.dense }

// cloneForWrite returns a copy-on-write clone for one epoch's writer
// (see BasicProperty.cloneForWrite): the per-code table, every pair
// list and every histogram are chunked vectors that copy what the
// writer's generation touches; the walk still reads the base epoch
// until the writer re-points it; the memo starts empty.
func (p *DerivedProperty) cloneForWrite() *DerivedProperty {
	q := *p
	q.memo = newRowSetMemo(p.memo.cache)
	return &q
}

// Dict returns the value dictionary the property's codes index into.
func (p *DerivedProperty) Dict() *relation.Dict { return p.dict }

// DecodeValue decodes a value code to its string.
func (p *DerivedProperty) DecodeValue(code int32) string { return p.dict.Value(code) }

// LookupCode returns the code of a derived value and whether it exists.
func (p *DerivedProperty) LookupCode(v string) (int32, bool) { return p.dict.Lookup(v) }

// statsOf returns the statistics of a code for reading (nil for NoCode
// and past the table: the dictionary can grow ahead of it).
func (p *DerivedProperty) statsOf(code int32) *codeStats {
	if uint(code) < uint(p.codes.Len()) {
		return p.codes.Ref(int(code))
	}
	return nil
}

// CodeCount pairs a value code with an association strength.
type CodeCount struct {
	Code  int32
	Count int
}

// AppendCounts appends the per-value association strengths of the
// entity at row to dst, ascending by value code, one a value, and
// returns it: exactly what the build's adjacencyOf and materializeDerived
// give the row — its distinct via rows, walked through the relations and
// resident indexes of the property's epoch, their contributions counted.
// sc is the walk's working memory (the via rows, then their codes,
// sorted and counted in runs), returned grown: a caller that passes both
// back from row to row allocates nothing once they have room.
func (p *DerivedProperty) AppendCounts(dst []CodeCount, sc []int32, row int) ([]CodeCount, []int32) {
	d := &p.walk
	sc = sc[:0]
	for fr := range d.factRows(row).All() {
		if _, vRow, ok := d.link(int(fr)); ok {
			sc = append(sc, int32(vRow))
		}
	}
	slices.Sort(sc)
	sc = slices.Compact(sc)
	vias := len(sc)
	for i := range vias {
		sc = d.add(int(sc[i]), sc)
	}
	codes := sc[vias:]
	slices.Sort(codes)
	for i, c := range codes {
		if i > 0 && c == codes[i-1] {
			dst[len(dst)-1].Count++
		} else {
			dst = append(dst, CodeCount{Code: c, Count: 1})
		}
	}
	return dst, sc
}

// SourceRows returns how many first-fact rows AppendCounts reads for
// the entity at row: what a caller weighs a walk by against probing the
// pair lists.
func (p *DerivedProperty) SourceRows(row int) int {
	return p.walk.factRows(row).Len()
}

// SelectivityOfCode returns ψ(φ⟨Attr,v,θ⟩): the fraction of entities
// associated with the value of code at strength ≥ θ (0 for NoCode).
// Entities with no association count as 0.
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
// the value of code at strength ≥ θ, in a set sized by the histogram's
// count (ge[θ-1], ψ's numerator); a θ past the largest strength, or
// NoCode, is the empty set without a walk. At θ ≤ 1 the set is the row
// vector whole; up to 255 a walk compares the strength bytes — a dense
// column's eight at a step; past 255 only the side table can hold a
// member, and the walk reads it alone.
// Memoized under the value (kept on a miss when store is set), with
// memo events attributed to sp; do not mutate the returned set.
func (p *DerivedProperty) EntityRowSetWithStrength(code int32, theta int, sp trace.Span, store bool) *index.RowSet {
	if code == relation.NoCode {
		return index.NewRowSet(p.numEntities, 0)
	}
	return p.memo.rowSet(SelKey{Value: p.dict.Value(code), Theta: theta}, sp, store, func() *index.RowSet {
		cs := p.statsOf(code)
		if cs == nil || theta > cs.ge.Len() {
			return index.NewRowSet(p.numEntities, 0)
		}
		count := cs.pairs()
		if theta >= 1 {
			count = int(cs.ge.At(theta - 1))
		}
		s := index.NewRowSet(p.numEntities, count)
		cells := cs.rows.Len()
		switch {
		case theta <= saturated && cs.dense:
			cells = cs.strengths.Len()
			cs.denseRows(s, max(theta, 1))
		case theta <= 1:
			for ci := range cs.rows.NumChunks() {
				s.AddAll(cs.rows.Chunk(ci))
			}
		case theta <= saturated:
			for ci := range cs.rows.NumChunks() {
				strengths := cs.strengths.Chunk(ci)
				for i, row := range cs.rows.Chunk(ci) {
					if int(strengths[i]) >= theta {
						s.Add(int(row))
					}
				}
			}
		default:
			cells = len(cs.over)
			for _, vc := range cs.over {
				if int(vc.count) >= theta {
					s.Add(int(vc.entityRow))
				}
			}
		}
		sp.Add(trace.CounterCellsStreamed, int64(cells))
		return s
	})
}

// EntityRowSetWithNormStrength returns the entity rows associated with
// the value of code at normalized strength ≥ θn, where each row's
// strength is divided by its degree (total association count) from the
// companion degree property; the set is sized by the value's pair
// count, an upper bound. Memoized under the value (kept on a miss when
// store is set), with memo events attributed to sp; do not mutate the
// returned set.
func (p *DerivedProperty) EntityRowSetWithNormStrength(code int32, thetaN float64, degree *DerivedProperty, sp trace.Span, store bool) *index.RowSet {
	if degree == nil {
		// No denominator: nothing satisfies a normalized threshold.
		return index.NewRowSet(0, 0)
	}
	if code == relation.NoCode {
		return index.NewRowSet(p.numEntities, 0)
	}
	return p.memo.rowSet(SelKey{Value: p.dict.Value(code), Lo: thetaN, Theta: -1}, sp, store, func() *index.RowSet {
		cs := p.statsOf(code)
		if cs == nil {
			return index.NewRowSet(p.numEntities, 0)
		}
		pairs := cs.pairs()
		s := index.NewRowSet(p.numEntities, pairs)
		for row, c := range cs.all() {
			if d := float64(degree.Degree(int(row))); d > 0 && float64(c)/d >= thetaN {
				s.Add(int(row))
			}
		}
		sp.Add(trace.CounterCellsStreamed, int64(pairs))
		return s
	})
}

// StrengthOfCode returns the association strength of the entity at row
// for the value code (0 when unassociated): one byte load from a dense
// column, or find over a list's row vector and then its strength byte,
// and the side table only when the byte reads saturated.
func (p *DerivedProperty) StrengthOfCode(row int, code int32) int {
	cs := p.statsOf(code)
	switch {
	case cs == nil:
		return 0
	case cs.dense:
		if uint(row) < uint(cs.strengths.Len()) {
			return cs.exact(cs.strengths.At(row), uint32(row))
		}
		return 0
	}
	if ci, off, found := cs.find(row, p.numEntities); found {
		return cs.exact(cs.strengths.Chunk(ci)[off], uint32(row))
	}
	return 0
}

// Degree returns the strength of the entity at row under a Degree
// property — its number of associated entities — read from the
// property's one value, code 0.
func (p *DerivedProperty) Degree(row int) int { return p.StrengthOfCode(row, 0) }

// DistinctValues returns the derived value domain, sorted.
func (p *DerivedProperty) DistinctValues() []string {
	var out []string
	for code := 0; code < p.codes.Len(); code++ {
		if p.codes.Ref(code).pairs() > 0 {
			out = append(out, p.dict.Value(int32(code)))
		}
	}
	sort.Strings(out)
	return out
}

// viewRows lists the derived relation (entity_id, value, count) from
// the values' pairs in the cold build's order — entity row, then the
// value's rank — all of its rows when codes is nil, else those of the
// given values: none is the schema. One value's rows are its pairs in
// entity-row order as they stand; several values' are placed in rank order by a counting
// sort on the entity row. info holds the entities' keys.
func (p *DerivedProperty) viewRows(info *EntityInfo, codes []int32) *relation.Relation {
	if codes == nil {
		for code := range p.codes.Len() {
			codes = append(codes, int32(code))
		}
	} else {
		codes = slices.Clone(codes)
		slices.Sort(codes)
		codes = slices.Compact(codes)
	}
	n, top := 0, 0
	codes = slices.DeleteFunc(codes, func(c int32) bool {
		cs := p.statsOf(c)
		if cs == nil {
			return true
		}
		pairs := cs.pairs()
		n, top = n+pairs, max(top, cs.ge.Len())
		return pairs == 0
	})
	p.dict.SortCodes(codes)
	// offs[r] is the next slot of entity row r's rows.
	var offs []int
	if len(codes) > 1 {
		offs = make([]int, p.numEntities+1)
		for _, code := range codes {
			for row := range p.statsOf(code).all() {
				offs[row+1]++
			}
		}
		for r := range p.numEntities {
			offs[r+1] += offs[r]
		}
	}
	// A value's histogram is as long as its largest strength: the counts
	// are laid out for 1 to top before the first is written.
	rows, vals, counts := make([]uint32, n), make([]int32, n), relation.MakeIntColumn("count", 1, int64(top), n)
	at := 0
	for _, code := range codes {
		for row, c := range p.statsOf(code).all() {
			i := at
			if offs != nil {
				i = offs[row]
				offs[row]++
			}
			rows[i], vals[i] = row, code
			counts.PutInt64(i, int64(c))
			at++
		}
	}
	return relation.Restore(p.RelName, "",
		[]relation.ForeignKey{{Column: "entity_id", RefRelation: p.Entity, RefColumn: info.PK}},
		[]*relation.Column{
			relation.GatherIntColumn("entity_id", info.rel.Column(info.PK), rows),
			relation.RestoreStringColumn("value", vals, p.dict, nil),
			counts,
		}, n)
}

// String renders the property for diagnostics.
func (p *DerivedProperty) String() string {
	return fmt.Sprintf("%s.%s [%s]", p.Entity, p.Attr, p.RelName)
}
