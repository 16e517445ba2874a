package index

import (
	"math/bits"
	"slices"
	"unsafe"

	"squid/internal/relation"
)

// Jagged and Postings are the two halves of a categorical statistic: the
// value codes of each entity row (Jagged) and the entity rows of each
// value code (Postings[uint32]); Postings[uint32] is also every hash
// index's posting lists, and Postings[uint64] the inverted index's. All
// are vectors of lists of 4- or 8-byte elements, in the one list
// layering of the package:
//
//   - an immutable base shared by every epoch since the last fold: list k
//     is flat[offs[k]:offs[k+1]] — one 4-byte offset a list and one
//     element a member, no slice header, no per-list allocation. A hash
//     index whose base is in key order stores no flat at all: its list k
//     is the rows offs[k] to offs[k+1]-1 (IntHash), and only the
//     offsets are read here;
//   - a tail holding the entries of the lists inserts touched since the
//     fold, as a table with one word per 64 lists (tailWord): a bitset
//     of the lists the tail holds and their entries in list order. Reading
//     a list the tail does not hold tests one bit and probes nothing.
//
// Clone copies the table, one pointer per 64 lists, and a writer copies
// a word on its generation's first write into it (at most 64 entry
// headers), so a publish pays for the words it touched, never for the
// tail it inherited. The entries stay shared and only ever grow past the
// lengths a retired generation holds (relation.Chunked.Append says why
// that is invisible to it). Once inserts since the fold added more than
// 1/foldDiv of the base's elements — counted in elements, not lists: a
// five-value property touches all five of its lists in every batch, and
// a threshold in lists would never fold it — Clone folds base and tail
// into a fresh base instead, so the base is paid for amortized
// O(foldDiv) per inserted element, never per publish. What a clone, a
// word copy or a fold copies is charged to the writer's relation.Gen.
// The generation and the chunked vector, the package's other
// copy-on-write storage, live in package relation, below this one, so a
// relation's columns are stamped by the same writer (a derived count
// column is a relation.Chunked of 4-byte cells).
type lists[T int32 | uint32 | uint64] struct {
	// offs has one entry per base list plus one; nil for an empty base.
	offs []uint32
	flat []T
	// tail[w] holds the tail entries of lists 64w to 64w+63; nil when
	// it holds none.
	tail []*tailWord[T]
	// gen is the writer generation that owns the table; a word another
	// generation owns is copied before it changes.
	gen *relation.Gen
	// n counts the lists, the base's and those added since the fold;
	// added the elements inserts added since the fold (the fold
	// threshold's numerator).
	n, added int
}

// tailWord is one word of the tail's table: held has bit i set when the
// tail holds list 64w+i, whose entry is runs[popcount of held below i].
type tailWord[T int32 | uint32 | uint64] struct {
	owner *relation.Gen
	held  uint64
	runs  [][]T
}

func (l *lists[T]) baseLists() int { return max(len(l.offs)-1, 0) }

// baseElems returns the number of elements the base's lists hold, read
// from the offsets: a key-ordered hash index stores no elements (see
// IntHash).
func (l *lists[T]) baseElems() int {
	if len(l.offs) == 0 {
		return 0
	}
	return int(l.offs[len(l.offs)-1])
}

// baseRun returns base list k (nil when empty), capped so an append can
// never reach the next list.
func (l *lists[T]) baseRun(k int) []T {
	a, b := l.offs[k], l.offs[k+1]
	if a == b {
		return nil
	}
	return l.flat[a:b:b]
}

// tailRun returns list k's tail entry and whether the tail holds it.
func (l *lists[T]) tailRun(k int) ([]T, bool) {
	if w := k >> 6; w < len(l.tail) {
		if t, bit := l.tail[w], uint64(1)<<(k&63); t != nil && t.held&bit != 0 {
			return t.runs[bits.OnesCount64(t.held&(bit-1))], true
		}
	}
	return nil, false
}

// setTail stores list k's tail entry. The table is the writer's own
// (fresh, or copied by Clone); the word is copied first when another
// generation owns it.
func (l *lists[T]) setTail(k int, run []T) {
	w := k >> 6
	for len(l.tail) <= w {
		l.tail = append(l.tail, nil)
	}
	t := l.tail[w]
	switch {
	case t == nil:
		t = &tailWord[T]{owner: l.gen}
		l.tail[w] = t
	case t.owner != l.gen:
		l.gen.Charge(len(t.runs) * elemSize[[]T]())
		t = &tailWord[T]{owner: l.gen, held: t.held, runs: append(make([][]T, 0, len(t.runs)+1), t.runs...)}
		l.tail[w] = t
	}
	bit := uint64(1) << (k & 63)
	i := bits.OnesCount64(t.held & (bit - 1))
	if t.held&bit != 0 {
		t.runs[i] = run
		return
	}
	t.held |= bit
	t.runs = slices.Insert(t.runs, i, run)
}

func (l *lists[T]) shouldFold() bool {
	return l.added >= foldMin && l.added*foldDiv > l.baseElems()
}

// cloneTail returns a clone for generation g sharing the base, the tail
// words and their entries, with its own copy of the table, charged to g.
func (l *lists[T]) cloneTail(g *relation.Gen) lists[T] {
	q := *l
	q.gen = g
	if l.tail != nil {
		q.tail = slices.Clone(l.tail)
		g.Charge(8 * len(q.tail))
	}
	return q
}

// residentBytes counts from lengths: the base's offsets and elements,
// and the tail's table, words, entry headers and the elements inserts
// added.
func (l *lists[T]) residentBytes() (base, tail int64) {
	size := int64(elemSize[T]())
	base = 4*int64(len(l.offs)) + size*int64(len(l.flat))
	tail = 8*int64(len(l.tail)) + size*int64(l.added)
	for _, t := range l.tail {
		if t != nil {
			tail += int64(unsafe.Sizeof(*t)) + int64(len(t.runs)*elemSize[[]T]())
		}
	}
	return base, tail
}

// Jagged is the value codes of each entity row, in the order the
// source rows carry them, repeats included. A tail entry is a row's
// whole list, copied out of the base on the row's first touch since the
// fold, so At is always one contiguous view. Rows appended since the
// fold sit in an append area (app, appOffs) that grows past the lengths
// retired generations hold and needs no tail entry; a row there that
// gains a code moves to the tail like a base row. The fold threshold counts the
// codes inserts added, not the ones a first touch copies: a copy is
// bounded by the list it moves, once per fold, and counting it would
// fold a property of long lists (a movie's cast) on nearly every batch.
type Jagged struct {
	lists[int32]
	// appOffs[i] and appOffs[i+1] bound appended list baseLists()+i in
	// app; nil while nothing was appended since the fold.
	appOffs []uint32
	app     []int32
	// copied counts the codes first touches copied into the tail.
	copied int
}

// JaggedOf adopts the per-list offsets (one per list plus one, from 0)
// and the elements they cut (the build and its folds); do not mutate
// either.
func JaggedOf(offs []uint32, flat []int32) Jagged {
	return Jagged{lists: lists[int32]{offs: offs, flat: flat, n: max(len(offs)-1, 0)}}
}

// Len returns the number of lists.
func (j *Jagged) Len() int { return j.n }

// At returns list k (nil when empty). The view is shared storage: do
// not mutate. It allocates nothing, and reads a tail entry only for a
// list the tail holds.
func (j *Jagged) At(k int) []int32 {
	if run, ok := j.tailRun(k); ok {
		return run
	}
	b := j.baseLists()
	if k < b {
		return j.baseRun(k)
	}
	a, e := j.appOffs[k-b], j.appOffs[k-b+1]
	if a == e {
		return nil
	}
	return j.app[a:e:e]
}

// Append adds a list (copied) at the end.
func (j *Jagged) Append(list ...int32) {
	if j.appOffs == nil {
		j.appOffs = make([]uint32, 1, 64)
	}
	j.app = append(j.app, list...)
	j.appOffs = append(j.appOffs, uint32(len(j.app)))
	j.n++
	j.added += len(list)
}

// Insert puts x into list k at position i. The first touch since the
// fold copies the list into the tail — a row's few codes, never more. A
// tail entry's elements are shared with retired generations, which only
// ever see a prefix of it: x past the end is appended, one before it
// goes into a fresh copy.
func (j *Jagged) Insert(k, i int, x int32) {
	run, ok := j.tailRun(k)
	if !ok || i < len(run) {
		cur := j.At(k)
		run = append(make([]int32, 0, len(cur)+1), cur...)
		j.copied += len(cur)
	}
	j.setTail(k, slices.Insert(run, i, x))
	j.added++
}

// Clone returns a copy-on-write clone for one writer generation: the
// base, the append area and the tail's words are shared, the tail's
// table copied — or, past the fold threshold, every list is laid out in
// a fresh base.
func (j *Jagged) Clone(g *relation.Gen) Jagged {
	if !j.shouldFold() {
		return Jagged{lists: j.cloneTail(g), appOffs: j.appOffs, app: j.app, copied: j.copied}
	}
	return j.fold(g)
}

// fold lays every list out in a fresh base with an empty tail.
func (j *Jagged) fold(g *relation.Gen) Jagged {
	offs := make([]uint32, j.n+1)
	total := 0
	for k := range j.n {
		total += len(j.At(k))
		offs[k+1] = uint32(total)
	}
	flat := make([]int32, 0, total)
	for k := range j.n {
		flat = append(flat, j.At(k)...)
	}
	g.Charge(4 * (len(offs) + len(flat)))
	out := JaggedOf(offs, flat)
	out.gen = g
	return out
}

// ResidentBytes returns the bytes of the base and of the tail (append
// area and copied codes included), counted from lengths.
func (j *Jagged) ResidentBytes() (base, tail int64) {
	base, tail = j.residentBytes()
	return base, tail + 4*int64(len(j.appOffs)+j.copied)
}

// Postings is a vector of sets: the entity rows of each value code
// (uint32), or the (text-column ordinal, row) pairs of each inverted
// index key (uint64). A list's base run is ascending, and its tail entry
// holds only the members added since the fold, in insertion order — so
// an insert copies nothing but a tail entry's growth, and every reader
// (Rows, Count, the fold) treats the pair as a set; the fold sorts it
// back into one ascending run.
type Postings[T uint32 | uint64] struct {
	lists[T]
}

// PostingsOf adopts the per-list offsets and the ascending runs they
// cut (the build and its folds); do not mutate either.
func PostingsOf[T uint32 | uint64](offs []uint32, flat []T) Postings[T] {
	return Postings[T]{lists[T]{offs: offs, flat: flat, n: max(len(offs)-1, 0)}}
}

// Len returns the number of lists: one past the largest code holding
// any row.
func (p *Postings[T]) Len() int { return p.n }

// Rows returns list k as its ascending base run and the members added
// since the fold (both nil past the table). The views are shared
// storage: do not mutate.
func (p *Postings[T]) Rows(k int) (base, tail []T) {
	if uint(k) >= uint(p.n) {
		return nil, nil
	}
	if k < p.baseLists() {
		base = p.baseRun(k)
	}
	tail, _ = p.tailRun(k)
	return base, tail
}

// Count returns the size of list k, reading the base's length from the
// offsets.
func (p *Postings[T]) Count(k int) int {
	if uint(k) >= uint(p.n) {
		return 0
	}
	n := 0
	if k < p.baseLists() {
		n = int(p.offs[k+1] - p.offs[k])
	}
	tail, _ := p.tailRun(k)
	return n + len(tail)
}

// AddRow adds x, which the list must not hold yet, to list k; the
// table grows to cover k.
func (p *Postings[T]) AddRow(k int, x T) {
	p.n = max(p.n, k+1)
	run, _ := p.tailRun(k)
	p.setTail(k, append(run, x))
	p.added++
}

// Clone returns a copy-on-write clone for one writer generation (see
// Jagged.Clone).
func (p *Postings[T]) Clone(g *relation.Gen) Postings[T] {
	if !p.shouldFold() {
		return Postings[T]{p.cloneTail(g)}
	}
	return p.fold(g)
}

// fold lays every list out ascending in a fresh base with an empty
// tail.
func (p *Postings[T]) fold(g *relation.Gen) Postings[T] {
	offs := make([]uint32, p.n+1)
	flat := make([]T, 0, p.baseElems()+p.added)
	for k := range p.n {
		base, tail := p.Rows(k)
		flat = append(append(flat, base...), tail...)
		if len(tail) > 0 {
			slices.Sort(flat[offs[k]:])
		}
		offs[k+1] = uint32(len(flat))
	}
	g.Charge(4*len(offs) + elemSize[T]()*len(flat))
	out := PostingsOf(offs, flat)
	out.gen = g
	return out
}

// ResidentBytes returns the bytes of the base and of the tail, counted
// from lengths.
func (p *Postings[T]) ResidentBytes() (base, tail int64) { return p.residentBytes() }

func elemSize[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}
