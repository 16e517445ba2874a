package index

import (
	"iter"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"squid/internal/relation"
)

// Postings is the one list layering of the package, a vector of sets of
// 4-byte rows: the entity rows of each value code of a categorical
// statistic, and the rows of each key of a hash index. It has two
// layers:
//
//   - an immutable base shared by every epoch since the last fold, each
//     list in the layout its count picks against the universe, the rows
//     the lists can hold (isBitmap): a list whose rows would take more
//     bytes than a bitmap over the universe is that bitmap, ⌈N/64⌉
//     words, and every other list is an ascending run of 4-byte rows.
//     The runs are cut from one flat array by one 4-byte offset a list;
//     a bitmap list's entry there is two numbers, its place among the
//     bitmaps and its count, and one bit a list marks the bitmaps. No
//     slice header, no per-list allocation;
//   - a tail holding the rows inserts added to each list since the fold,
//     in insertion order, as a table with one word per 64 lists
//     (tailWord): a bitset of the lists the tail holds and their entries
//     in list order. Reading a list the tail does not hold tests one bit
//     and probes nothing.
//
// So an insert copies nothing but a tail entry's growth, and every
// reader reads the pair through one view, List, in either layout; the
// fold lays every list out again, by its new count, over the universe
// widened to the rows inserts added.
//
// Clone copies the table, one pointer per 64 lists, and a writer copies
// a word on its generation's first write into it (at most 64 entry
// headers), so a publish pays for the words it touched, never for the
// tail it inherited. The entries stay shared and only ever grow past the
// lengths a retired generation holds (relation.Chunked.Append says why
// that is invisible to it). Once inserts since the fold added more than
// 1/foldDiv of the base's rows — counted in rows, not lists: a
// five-value property touches all five of its lists in every batch, and
// a threshold in lists would never fold it — Clone folds base and tail
// into a fresh base instead, so the base is paid for amortized
// O(foldDiv) per inserted row, never per publish. What a clone, a word
// copy or a fold copies is charged to the writer's relation.Gen. The
// generation and the chunked vector, the package's other copy-on-write
// storage, live in package relation, below this one, so a relation's
// columns are stamped by the same writer.
type Postings struct {
	// offs has one entry per base list plus one. Run list k is
	// flat[offs[k]:offs[k+1]]; a bitmap list's two entries there are its
	// place i among the bitmaps and its count, and its rows are the set
	// bits of words[i·span:(i+1)·span].
	offs []uint32
	flat []uint32
	// bitmap has bit k set when base list k is a bitmap; nil when no
	// list is.
	bitmap []uint64
	words  []uint64
	// span is the words of one bitmap, ⌈universe/64⌉ when the base was
	// laid out; rows counts the base's rows (the fold threshold's
	// denominator).
	span, rows int
	// universe bounds the rows the lists hold: the build's, widened by
	// the rows inserts added since.
	universe int
	// tail[w] holds the tail entries of lists 64w to 64w+63; nil when
	// it holds none.
	tail []*tailWord
	// gen is the writer generation that owns the table; a word another
	// generation owns is copied before it changes.
	gen *relation.Gen
	// n counts the lists, the base's and those added since the fold;
	// added the rows inserts added since the fold (the fold threshold's
	// numerator).
	n, added int
}

// tailWord is one word of the tail's table: held has bit i set when the
// tail holds list 64w+i, whose entry is runs[popcount of held below i].
type tailWord struct {
	owner *relation.Gen
	held  uint64
	runs  [][]uint32
}

// runHeader is the size of one tail entry's slice header.
const runHeader = int(unsafe.Sizeof([]uint32(nil)))

// isBitmap is the layout rule: a list of n rows is a bitmap of span
// words when its rows would take more bytes, 4·n > 8·span. A one-row
// list never is.
func isBitmap(n, span int) bool { return 4*n > 8*span }

// inBitmap marks a bitmap list among PostingsBuilder's run cursors.
const inBitmap = math.MaxUint32

// PostingsBuilder lays out a Postings base whose list sizes are known
// before its rows, as a counting sort knows them: each list takes the
// layout its count picks (isBitmap), and the base is allocated once, at
// its exact size.
type PostingsBuilder struct {
	p Postings
	// next is each run list's next free slot in flat, inBitmap for a
	// bitmap list.
	next []uint32
}

// NewPostingsBuilder starts a base of len(sizes)-1 lists of rows in
// [0, universe): sizes[0] is 0 and sizes[k+1] the row count of list k.
// It adopts sizes as the base's offsets.
func NewPostingsBuilder(sizes []uint32, universe int) *PostingsBuilder {
	lists := max(len(sizes)-1, 0)
	b := &PostingsBuilder{next: make([]uint32, lists)}
	p := &b.p
	p.offs, p.n, p.universe, p.span = sizes, lists, universe, (universe+63)>>6
	var counts []uint32 // the bitmap lists', in list order
	for k := range lists {
		c := sizes[k+1]
		p.rows += int(c)
		if isBitmap(int(c), p.span) {
			if p.bitmap == nil {
				p.bitmap = make([]uint64, (lists+63)>>6)
			}
			p.bitmap[k>>6] |= 1 << (k & 63)
			counts = append(counts, c)
			sizes[k+1] = 2
		}
	}
	if lists == 0 {
		return b
	}
	for k := range lists {
		sizes[k+1] += sizes[k]
	}
	p.flat = make([]uint32, sizes[lists])
	if len(counts) > 0 {
		p.words = make([]uint64, len(counts)*p.span)
	}
	i := uint32(0)
	for k := range lists {
		if !p.isBitmap(k) {
			b.next[k] = sizes[k]
			continue
		}
		p.flat[sizes[k]], p.flat[sizes[k]+1] = i, counts[i]
		b.next[k] = inBitmap
		i++
	}
	return b
}

// Add adds row to list k. A run list's rows must come ascending, and
// each list must get exactly the count it was given.
func (b *PostingsBuilder) Add(k int, row uint32) {
	if at := b.next[k]; at != inBitmap {
		b.p.flat[at] = row
		b.next[k] = at + 1
		return
	}
	words, _ := b.p.bitmapOf(k)
	words[row>>6] |= 1 << (row & 63)
}

// Postings returns the laid-out base.
func (b *PostingsBuilder) Postings() Postings { return b.p }

func (p *Postings) baseLists() int { return max(len(p.offs)-1, 0) }

// isBitmap reports whether base list k is a bitmap.
func (p *Postings) isBitmap(k int) bool {
	w := k >> 6
	return w < len(p.bitmap) && p.bitmap[w]&(1<<(k&63)) != 0
}

// bitmapOf returns base bitmap list k's words and count.
func (p *Postings) bitmapOf(k int) ([]uint64, int) {
	at := p.offs[k]
	i := int(p.flat[at]) * p.span
	return p.words[i : i+p.span : i+p.span], int(p.flat[at+1])
}

// tailRun returns list k's tail entry and whether the tail holds it.
func (p *Postings) tailRun(k int) ([]uint32, bool) {
	if w := k >> 6; w < len(p.tail) {
		if t, bit := p.tail[w], uint64(1)<<(k&63); t != nil && t.held&bit != 0 {
			return t.runs[bits.OnesCount64(t.held&(bit-1))], true
		}
	}
	return nil, false
}

// setTail stores list k's tail entry. The table is the writer's own
// (fresh, or copied by Clone); the word is copied first when another
// generation owns it.
func (p *Postings) setTail(k int, run []uint32) {
	w := k >> 6
	for len(p.tail) <= w {
		p.tail = append(p.tail, nil)
	}
	t := p.tail[w]
	switch {
	case t == nil:
		t = &tailWord{owner: p.gen}
		p.tail[w] = t
	case t.owner != p.gen:
		p.gen.Charge(len(t.runs) * runHeader)
		t = &tailWord{owner: p.gen, held: t.held, runs: append(make([][]uint32, 0, len(t.runs)+1), t.runs...)}
		p.tail[w] = t
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

// Len returns the number of lists: one past the largest code holding
// any row.
func (p *Postings) Len() int { return p.n }

// Rows returns list k for reading (empty past the table). The view is
// shared storage: do not mutate.
func (p *Postings) Rows(k int) List {
	var l List
	if uint(k) >= uint(p.n) {
		return l
	}
	if k < p.baseLists() {
		if p.isBitmap(k) {
			l.words, l.n = p.bitmapOf(k)
		} else {
			a, b := p.offs[k], p.offs[k+1]
			l.run, l.n = p.flat[a:b:b], int(b-a)
		}
	}
	l.tail, _ = p.tailRun(k)
	return l
}

// Count returns the size of list k, reading the base's from the offsets
// or, for a bitmap, its stored count.
func (p *Postings) Count(k int) int {
	if uint(k) >= uint(p.n) {
		return 0
	}
	n := 0
	if k < p.baseLists() {
		if p.isBitmap(k) {
			n = int(p.flat[p.offs[k]+1])
		} else {
			n = int(p.offs[k+1] - p.offs[k])
		}
	}
	tail, _ := p.tailRun(k)
	return n + len(tail)
}

// First returns the first row of list k, the base's smallest when it
// has any, and whether the list holds one: the first set bit of a
// bitmap, the first row of a run, or the tail's first. It reads the
// base in place, without a List: a key index's point lookups call it
// for every row they resolve.
func (p *Postings) First(k int) (uint32, bool) {
	if uint(k) >= uint(p.n) {
		return 0, false
	}
	if k < p.baseLists() {
		if p.isBitmap(k) {
			words, _ := p.bitmapOf(k)
			for wi, w := range words {
				if w != 0 {
					return uint32(wi<<6 | bits.TrailingZeros64(w)), true
				}
			}
		} else if a := p.offs[k]; a < p.offs[k+1] {
			return p.flat[a], true
		}
	}
	if tail, _ := p.tailRun(k); len(tail) > 0 {
		return tail[0], true
	}
	return 0, false
}

// Contains reports whether list k holds x: a bit test of a bitmap or a
// search of a run (searchRun), and a scan of the rows added since the
// fold. Like First, it reads the base in place: context discovery probes
// a list for every example it does not walk.
func (p *Postings) Contains(k int, x uint32) bool {
	if uint(k) >= uint(p.n) {
		return false
	}
	if k < p.baseLists() {
		if p.isBitmap(k) {
			words, _ := p.bitmapOf(k)
			if w := uint(x >> 6); w < uint(len(words)) && words[w]&(1<<(x&63)) != 0 {
				return true
			}
		} else if searchRun(p.flat[p.offs[k]:p.offs[k+1]], x) {
			return true
		}
	}
	tail, _ := p.tailRun(k)
	return slices.Contains(tail, x)
}

// List is one posting list as its readers see it, whichever layout its
// base has: the base's rows — a bitmap's set bits or a run — ascending,
// then the rows added since the fold, in insertion order. Its storage
// is shared: do not mutate.
type List struct {
	words []uint64 // the base as a bitmap; nil for a run
	run   []uint32 // the base as a run
	n     int      // the base's rows
	tail  []uint32
}

// Len returns the list's size.
func (l List) Len() int { return l.n + len(l.tail) }

// All yields the list's rows: the base's ascending, then the tail's.
func (l List) All() iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		for wi, w := range l.words {
			for ; w != 0; w &= w - 1 {
				if !yield(uint32(wi<<6 | bits.TrailingZeros64(w))) {
					return
				}
			}
		}
		for _, r := range l.run {
			if !yield(r) {
				return
			}
		}
		for _, r := range l.tail {
			if !yield(r) {
				return
			}
		}
	}
}

// searchRun reports whether the ascending, duplicate-free run holds x.
// The members of a list spread about evenly over their range, so the
// search starts where x's share of the range puts it, gallops from
// there toward x in doubling steps and binary-searches the last step:
// a read or two near the guess, O(log n) at worst.
func searchRun(run []uint32, x uint32) bool {
	n := len(run)
	if n == 0 || x < run[0] || x > run[n-1] {
		return false
	}
	// g = (x-first)·(n-1)/(last-first): a product of two 32-bit factors
	// fits 64 bits, and the quotient is at most n-1.
	g := 0
	if span := uint64(run[n-1] - run[0]); span > 0 {
		g = int(uint64(x-run[0]) * uint64(n-1) / span)
	}
	// x, when present, lies in run[lo:hi].
	lo, hi := g, g+1
	switch {
	case run[g] == x:
		return true
	case run[g] < x:
		for step := 1; hi < n && run[hi] < x; step *= 2 {
			lo, hi = hi+1, min(hi+1+step, n)
		}
		if hi < n {
			hi++
		}
	default:
		for step := 1; lo > 0 && run[lo-1] > x; step *= 2 {
			lo, hi = max(lo-1-step, 0), lo-1
		}
		if lo > 0 {
			lo--
		}
	}
	_, found := slices.BinarySearch(run[lo:hi], x)
	return found
}

// AddRow adds x, which the list must not hold yet, to list k; the
// table grows to cover k, and the universe to cover x.
func (p *Postings) AddRow(k int, x uint32) {
	p.n = max(p.n, k+1)
	p.universe = max(p.universe, int(x)+1)
	run, _ := p.tailRun(k)
	p.setTail(k, append(run, x))
	p.added++
}

// Clone returns a copy-on-write clone for one writer generation: the
// base and the tail's words are shared, the tail's table copied and
// charged to g — or, past the fold rule, every list is laid out again
// in a fresh base.
func (p *Postings) Clone(g *relation.Gen) Postings {
	if foldDue(p.added, p.rows) {
		return p.fold(g)
	}
	q := *p
	q.gen = g
	if p.tail != nil {
		q.tail = slices.Clone(p.tail)
		g.Charge(8 * len(q.tail))
	}
	return q
}

// fold lays every list out in a fresh base with an empty tail, each in
// the layout its count now picks over the universe. A bitmap that stays
// one is copied a word at a time (the universe only widens), and the
// other rows are added one by one; a run is sorted when the tail added
// any.
func (p *Postings) fold(g *relation.Gen) Postings {
	sizes := make([]uint32, p.n+1)
	for k := range p.n {
		sizes[k+1] = uint32(p.Count(k))
	}
	b := NewPostingsBuilder(sizes, p.universe)
	q := &b.p
	for k := range p.n {
		l := p.Rows(k)
		if q.isBitmap(k) {
			words, _ := q.bitmapOf(k)
			copy(words, l.words)
			l.words = nil
		}
		for r := range l.All() {
			b.Add(k, r)
		}
		if !q.isBitmap(k) && len(l.tail) > 0 {
			slices.Sort(q.flat[q.offs[k]:q.offs[k+1]])
		}
	}
	base, _ := q.ResidentBytes()
	g.Charge(int(base))
	q.gen = g
	return *q
}

// ResidentBytes returns the bytes of the base and of the tail, counted
// from lengths: the base's offsets, runs, bitmap marks and words, and
// the tail's table, words, entry headers and the rows inserts added.
func (p *Postings) ResidentBytes() (base, tail int64) {
	base = 4*int64(len(p.offs)+len(p.flat)) + 8*int64(len(p.bitmap)+len(p.words))
	tail = 8*int64(len(p.tail)) + 4*int64(p.added)
	for _, t := range p.tail {
		if t != nil {
			tail += int64(unsafe.Sizeof(*t)) + int64(len(t.runs)*runHeader)
		}
	}
	return base, tail
}
