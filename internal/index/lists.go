package index

import (
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
//   - an immutable base shared by every epoch since the last fold: list k
//     is flat[offs[k]:offs[k+1]], ascending — one 4-byte offset a list
//     and one row a member, no slice header, no per-list allocation;
//   - a tail holding the rows inserts added to each list since the fold,
//     in insertion order, as a table with one word per 64 lists
//     (tailWord): a bitset of the lists the tail holds and their entries
//     in list order. Reading a list the tail does not hold tests one bit
//     and probes nothing.
//
// So an insert copies nothing but a tail entry's growth, and every
// reader (Rows, Count, the fold) treats the pair as a set; the fold sorts
// it back into one ascending run.
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
	// offs has one entry per base list plus one; nil for an empty base.
	offs []uint32
	flat []uint32
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

// PostingsOf adopts the per-list offsets and the ascending runs they
// cut (the build and its folds); do not mutate either.
func PostingsOf(offs, flat []uint32) Postings {
	return Postings{offs: offs, flat: flat, n: max(len(offs)-1, 0)}
}

func (p *Postings) baseLists() int { return max(len(p.offs)-1, 0) }

// baseRun returns base list k (nil when empty), capped so an append can
// never reach the next list.
func (p *Postings) baseRun(k int) []uint32 {
	a, b := p.offs[k], p.offs[k+1]
	if a == b {
		return nil
	}
	return p.flat[a:b:b]
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

// Rows returns list k as its ascending base run and the members added
// since the fold (both nil past the table). The views are shared
// storage: do not mutate.
func (p *Postings) Rows(k int) (base, tail []uint32) {
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
func (p *Postings) Count(k int) int {
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

// Contains reports whether list k holds x: a search of the base run
// (searchRun) and a scan of the members added since the fold.
func (p *Postings) Contains(k int, x uint32) bool {
	base, tail := p.Rows(k)
	return searchRun(base, x) || slices.Contains(tail, x)
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
// table grows to cover k.
func (p *Postings) AddRow(k int, x uint32) {
	p.n = max(p.n, k+1)
	run, _ := p.tailRun(k)
	p.setTail(k, append(run, x))
	p.added++
}

// Clone returns a copy-on-write clone for one writer generation: the
// base and the tail's words are shared, the tail's table copied and
// charged to g — or, past the fold rule, every list is laid out
// ascending in a fresh base.
func (p *Postings) Clone(g *relation.Gen) Postings {
	if foldDue(p.added, len(p.flat)) {
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

// fold lays every list out ascending in a fresh base with an empty
// tail.
func (p *Postings) fold(g *relation.Gen) Postings {
	offs := make([]uint32, p.n+1)
	flat := make([]uint32, 0, len(p.flat)+p.added)
	for k := range p.n {
		base, tail := p.Rows(k)
		flat = append(append(flat, base...), tail...)
		if len(tail) > 0 {
			slices.Sort(flat[offs[k]:])
		}
		offs[k+1] = uint32(len(flat))
	}
	g.Charge(4 * (len(offs) + len(flat)))
	out := PostingsOf(offs, flat)
	out.gen = g
	return out
}

// ResidentBytes returns the bytes of the base and of the tail, counted
// from lengths: the base's offsets and rows, and the tail's table,
// words, entry headers and the rows inserts added.
func (p *Postings) ResidentBytes() (base, tail int64) {
	base = 4 * int64(len(p.offs)+len(p.flat))
	tail = 8*int64(len(p.tail)) + 4*int64(p.added)
	for _, t := range p.tail {
		if t != nil {
			tail += int64(unsafe.Sizeof(*t)) + int64(len(t.runs)*runHeader)
		}
	}
	return base, tail
}
