package relation

import (
	"iter"
	"slices"
	"sort"
	"unsafe"
)

// chunkCap is the number of elements in a full chunk: the unit of
// copy-on-write for every Chunked vector. Small enough that a write
// copies a few KB, large enough that a chunk table is a few hundred
// entries per 100k rows.
const chunkCap = 256

// Gen identifies one writer generation — the private copy-on-write
// scope of one epoch builder. Storage stamped with a Gen belongs to
// that writer and is mutated in place; anything else is shared with
// published epochs and is copied (one chunk, or one chunk table) on the
// first write. A writer makes one with new(Gen) and drops it at
// publish, which is what freezes everything it stamped. The nil Gen is
// the offline builder's: build and decode own everything they touch and
// copy nothing.
type Gen struct {
	// Copied tallies the bytes this generation copied out of shared
	// storage — what the epoch it retires keeps alive on its own.
	Copied int64
}

// Charge adds bytes copied out of shared storage to the tally; the nil
// Gen copies nothing and keeps none. Every copy-on-write structure
// charges its writer's Gen: the chunked vectors here, and the index
// package's key tables and lists.
func (g *Gen) Charge(bytes int) {
	if g != nil {
		g.Copied += int64(bytes)
	}
}

type chunk[T any] struct {
	owner *Gen
	data  []T
	// first is data[0], kept in the table: a search of a sorted list
	// picks its chunk from the table alone (First).
	first T
}

// Chunked is a vector stored as chunks of at most chunkCap elements,
// shared between epochs: copying the header (a plain assignment) is a
// clone, and a writer passes its Gen to every mutator, which copies the
// chunk table on the first write of the generation and a chunk on the
// first write into it. Readers need no Gen and never observe a write:
// they hold an older header, whose table and chunks are never touched
// again.
//
// It serves two disciplines. Positional vectors (At, Set, Append) keep
// every chunk but the last full, so an index is a division. Sorted
// lists (Search, InsertAt, SetAt) locate by searching the chunks and
// split a full chunk in two on insert; a split leaves the vector ragged
// and At falls back to walking the chunks.
type Chunked[T any] struct {
	chunks []chunk[T]
	owner  *Gen // the generation that owns the chunk table
	n      int
	ragged bool
}

// ChunkedOf cuts flat into chunks that are capacity-capped subslices of
// its backing array (build and snapshot decode: one allocation, one
// contiguous read); the vector adopts flat, do not mutate it.
func ChunkedOf[T any](flat []T) Chunked[T] {
	v := Chunked[T]{n: len(flat)}
	if len(flat) == 0 {
		return v
	}
	v.chunks = make([]chunk[T], 0, (len(flat)+chunkCap-1)/chunkCap)
	for off := 0; off < len(flat); off += chunkCap {
		end := min(off+chunkCap, len(flat))
		v.chunks = append(v.chunks, chunk[T]{data: flat[off:end:end], first: flat[off]})
	}
	return v
}

// Len returns the number of elements.
func (v *Chunked[T]) Len() int { return v.n }

// ByteSize returns the bytes the vector holds: its elements and its
// chunk table (not what the elements point to).
func (v *Chunked[T]) ByteSize() int64 {
	return int64(v.n)*int64(elemSize[T]()) + int64(len(v.chunks))*int64(unsafe.Sizeof(chunk[T]{}))
}

// NumChunks returns the number of chunks.
func (v *Chunked[T]) NumChunks() int { return len(v.chunks) }

// Chunk returns the ci-th chunk for reading; do not mutate.
func (v *Chunked[T]) Chunk(ci int) []T { return v.chunks[ci].data }

// First returns the first element of the ci-th chunk, read from the
// chunk table.
func (v *Chunked[T]) First(ci int) T { return v.chunks[ci].first }

// All iterates the elements in order with their indexes.
func (v *Chunked[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		i := 0
		for _, c := range v.chunks {
			for _, x := range c.data {
				if !yield(i, x) {
					return
				}
				i++
			}
		}
	}
}

// locate maps an element index to its chunk and offset.
func (v *Chunked[T]) locate(i int) (ci, off int) {
	if !v.ragged {
		return i / chunkCap, i % chunkCap
	}
	for ci = range v.chunks {
		n := len(v.chunks[ci].data)
		if i < n {
			return ci, i
		}
		i -= n
	}
	panic("relation: Chunked index out of range")
}

// At returns element i.
func (v *Chunked[T]) At(i int) T {
	ci, off := v.locate(i)
	return v.chunks[ci].data[off]
}

// Ref returns a pointer to element i for reading without a copy; do not
// write through it.
func (v *Chunked[T]) Ref(i int) *T {
	ci, off := v.locate(i)
	return &v.chunks[ci].data[off]
}

func elemSize[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// ownTable copies the chunk table on the generation's first write.
func (v *Chunked[T]) ownTable(g *Gen) {
	if v.owner != g {
		g.Charge(len(v.chunks) * int(unsafe.Sizeof(chunk[T]{})))
		v.chunks = append(make([]chunk[T], 0, len(v.chunks)+1), v.chunks...)
		v.owner = g
	}
}

// ownChunk copies chunk ci on the generation's first write into it.
func (v *Chunked[T]) ownChunk(g *Gen, ci int) *chunk[T] {
	c := &v.chunks[ci]
	if c.owner != g {
		// The last chunk of a positional vector keeps room to grow, so
		// later appends stay in place.
		size := len(c.data)
		if ci == len(v.chunks)-1 && !v.ragged {
			size = chunkCap
		}
		data := make([]T, len(c.data), size)
		copy(data, c.data)
		g.Charge(len(data) * elemSize[T]())
		c.data, c.owner = data, g
	}
	return c
}

// Set overwrites element i.
func (v *Chunked[T]) Set(g *Gen, i int, x T) {
	ci, off := v.locate(i)
	v.SetAt(g, ci, off, x)
}

// SetAt overwrites the element at offset off of chunk ci.
func (v *Chunked[T]) SetAt(g *Gen, ci, off int, x T) {
	v.ownTable(g)
	c := v.ownChunk(g, ci)
	c.data[off] = x
	if off == 0 {
		c.first = x
	}
}

// Append adds x at the end. Growing the last chunk into its spare
// capacity copies nothing even when the chunk is shared: epochs form a
// linear chain, so the slot past a retired generation's length is
// written at most once and no reader of that generation indexes it.
func (v *Chunked[T]) Append(g *Gen, x T) {
	if v.ragged {
		last := len(v.chunks) - 1
		v.InsertAt(g, last, len(v.chunks[last].data), x)
		return
	}
	v.ownTable(g)
	v.n++
	if last := len(v.chunks) - 1; last >= 0 && len(v.chunks[last].data) < chunkCap {
		c := &v.chunks[last]
		if len(c.data) == cap(c.data) {
			// Cut from a decoded array: no spare capacity to grow into.
			c = v.ownChunk(g, last)
		}
		c.data = append(c.data, x)
		return
	}
	v.chunks = append(v.chunks, chunk[T]{owner: g, data: append(make([]T, 0, chunkCap), x), first: x})
}

// Search returns the position of the first element of a sorted vector
// for which ge reports true — the chunk and offset where such an
// element is or, for InsertAt, belongs: the end of the last chunk when
// there is none.
func (v *Chunked[T]) Search(ge func(T) bool) (ci, off int) {
	n := len(v.chunks)
	if n == 0 {
		return 0, 0
	}
	ci = sort.Search(n, func(i int) bool {
		d := v.chunks[i].data
		return ge(d[len(d)-1])
	})
	if ci == n {
		return n - 1, len(v.chunks[n-1].data)
	}
	d := v.chunks[ci].data
	return ci, sort.Search(len(d), func(i int) bool { return ge(d[i]) })
}

// InsertAt inserts x before offset off of chunk ci (off may equal the
// chunk's length; an empty vector takes ci = off = 0). The chunk is
// rebuilt tight around the new element, so readers of the old one are
// undisturbed and nothing carries slack; a full chunk splits in two,
// except at the very end of the vector, where a new chunk starts (the
// ascending inserts of a build fill chunks instead of halving them).
func (v *Chunked[T]) InsertAt(g *Gen, ci, off int, x T) {
	v.ownTable(g)
	v.n++
	if len(v.chunks) == 0 || ci == len(v.chunks)-1 && off == chunkCap {
		v.chunks = append(v.chunks, chunk[T]{owner: g, data: []T{x}, first: x})
		return
	}
	c := &v.chunks[ci]
	old := c.data
	if c.owner != g {
		g.Charge(len(old) * elemSize[T]())
	}
	data := make([]T, 0, len(old)+1)
	data = append(append(append(data, old[:off]...), x), old[off:]...)
	if len(old) < chunkCap {
		c.data, c.owner, c.first = data, g, data[0]
		return
	}
	// Split: the chunkCap+1 elements become two chunks of half each,
	// separately allocated so either can be freed on its own.
	half := len(data) / 2
	c.data, c.owner, c.first = slices.Clone(data[:half]), g, data[0]
	right := chunk[T]{owner: g, data: slices.Clone(data[half:]), first: data[half]}
	v.chunks = slices.Insert(v.chunks, ci+1, right)
	v.ragged = true
}
