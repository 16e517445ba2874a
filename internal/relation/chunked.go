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

// firstTableCap is the room Append gives a chunk table it starts: a
// vector appended from empty — a derived pair list's rows and
// strengths, a few chunks each — allocates its table once instead of at
// one, two and four chunks.
const firstTableCap = 4

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

// chunk is one entry of a chunk table, 16 bytes for 1- to 4-byte
// elements: a pointer to the chunk's first element, its length, and its
// capacity, whose top bit (ownedBit) says the chunk belongs to the
// generation that owns the table — ownTable clears every bit when it
// copies a table for a new generation.
type chunk[T any] struct {
	ptr *T
	n   uint16
	c   uint16
	// first is the chunk's first element, kept in the table: a search of
	// a sorted list picks its chunk from the table alone (First).
	first T
}

// ownedBit marks, in a chunk's capacity, a chunk the table's generation
// owns. Capacities stay at most chunkCap, far below it.
const ownedBit = 1 << 15

// data returns the chunk's elements.
func (c *chunk[T]) data() []T { return unsafe.Slice(c.ptr, c.n) }

func (c *chunk[T]) owned() bool { return c.c&ownedBit != 0 }

func (c *chunk[T]) capacity() int { return int(c.c &^ ownedBit) }

// set points the chunk at data, owned by the table's generation or not.
func (c *chunk[T]) set(data []T, owned bool) {
	c.ptr, c.n, c.c = unsafe.SliceData(data), uint16(len(data)), uint16(cap(data))
	if owned {
		c.c |= ownedBit
	}
}

// newChunk returns an entry for data, owned by the table's generation.
func newChunk[T any](data []T) chunk[T] {
	c := chunk[T]{first: data[0]}
	c.set(data, true)
	return c
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

// ChunkedOf copies flat into chunks of chunkCap elements (build and
// snapshot decode), each its own allocation of exactly its length: a
// writer's copy of one chunk frees the chunk it replaced once the last
// epoch that reads it retires, where chunks cut from one array would
// keep the whole array pinned by their neighbors. flat stays the
// caller's.
func ChunkedOf[T any](flat []T) Chunked[T] {
	v := Chunked[T]{n: len(flat)}
	if len(flat) == 0 {
		return v
	}
	v.chunks = make([]chunk[T], 0, (len(flat)+chunkCap-1)/chunkCap)
	for off := 0; off < len(flat); off += chunkCap {
		end := min(off+chunkCap, len(flat))
		v.chunks = append(v.chunks, newChunk(append(make([]T, 0, end-off), flat[off:end]...)))
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
func (v *Chunked[T]) Chunk(ci int) []T { return v.chunks[ci].data() }

// First returns the first element of the ci-th chunk, read from the
// chunk table.
func (v *Chunked[T]) First(ci int) T { return v.chunks[ci].first }

// All iterates the elements in order with their indexes.
func (v *Chunked[T]) All() iter.Seq2[int, T] {
	return func(yield func(int, T) bool) {
		i := 0
		for ci := range v.chunks {
			for _, x := range v.chunks[ci].data() {
				if !yield(i, x) {
					return
				}
				i++
			}
		}
	}
}

// Locate maps an element index to its chunk and offset: a division
// unless an insert split a chunk.
func (v *Chunked[T]) Locate(i int) (ci, off int) {
	if !v.ragged {
		return i / chunkCap, i % chunkCap
	}
	for ci = range v.chunks {
		n := int(v.chunks[ci].n)
		if i < n {
			return ci, i
		}
		i -= n
	}
	panic("relation: Chunked index out of range")
}

// At returns element i.
func (v *Chunked[T]) At(i int) T {
	ci, off := v.Locate(i)
	return v.chunks[ci].data()[off]
}

// Ref returns a pointer to element i for reading without a copy; do not
// write through it.
func (v *Chunked[T]) Ref(i int) *T {
	ci, off := v.Locate(i)
	return &v.chunks[ci].data()[off]
}

func elemSize[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// ownTable copies the chunk table on the generation's first write,
// clearing every chunk's owned bit: the chunks still belong to the
// generations that wrote them.
func (v *Chunked[T]) ownTable(g *Gen) {
	if v.owner != g {
		g.Charge(len(v.chunks) * int(unsafe.Sizeof(chunk[T]{})))
		chunks := append(make([]chunk[T], 0, len(v.chunks)+1), v.chunks...)
		for i := range chunks {
			chunks[i].c &^= ownedBit
		}
		v.chunks, v.owner = chunks, g
	}
}

// ownChunk copies chunk ci on the generation's first write into it,
// with room for size elements; the table is the generation's already.
func (v *Chunked[T]) ownChunk(g *Gen, ci, size int) *chunk[T] {
	c := &v.chunks[ci]
	if !c.owned() {
		data := make([]T, c.n, size)
		copy(data, c.data())
		g.Charge(len(data) * elemSize[T]())
		c.set(data, true)
	}
	return c
}

// Set overwrites element i.
func (v *Chunked[T]) Set(g *Gen, i int, x T) {
	ci, off := v.Locate(i)
	v.SetAt(g, ci, off, x)
}

// SetAt overwrites the element at offset off of chunk ci.
func (v *Chunked[T]) SetAt(g *Gen, ci, off int, x T) {
	v.ownTable(g)
	c := v.ownChunk(g, ci, int(v.chunks[ci].n))
	c.data()[off] = x
	if off == 0 {
		c.first = x
	}
}

// Append adds x at the end. Growing the last chunk into its spare
// capacity copies nothing even when the chunk is shared: epochs form a
// linear chain, so the slot past a retired generation's length is
// written at most once and no reader of that generation indexes it. A
// last chunk without spare capacity — ChunkedOf's, exact-size, and a
// SetAt's copy — is copied once, with room for chunkCap, and grows in
// place from then on.
func (v *Chunked[T]) Append(g *Gen, x T) {
	if v.ragged {
		last := len(v.chunks) - 1
		v.InsertAt(g, last, int(v.chunks[last].n), x)
		return
	}
	v.ownTable(g)
	v.n++
	if last := len(v.chunks) - 1; last >= 0 && v.chunks[last].n < chunkCap {
		c := &v.chunks[last]
		if int(c.n) == c.capacity() {
			// No spare capacity: laid out at its exact length by
			// ChunkedOf, or copied tight by a SetAt. The chunk is
			// copied with room to grow, so later appends stay in place;
			// only a shared one is charged.
			data := make([]T, c.n, chunkCap)
			copy(data, c.data())
			if !c.owned() {
				g.Charge(len(data) * elemSize[T]())
			}
			c.set(data, true)
		}
		*(*T)(unsafe.Add(unsafe.Pointer(c.ptr), uintptr(c.n)*unsafe.Sizeof(x))) = x
		c.n++
		return
	}
	if v.chunks == nil {
		v.chunks = make([]chunk[T], 0, firstTableCap)
	}
	v.chunks = append(v.chunks, newChunk(append(make([]T, 0, chunkCap), x)))
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
		d := v.chunks[i].data()
		return ge(d[len(d)-1])
	})
	if ci == n {
		return n - 1, int(v.chunks[n-1].n)
	}
	d := v.chunks[ci].data()
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
		v.chunks = append(v.chunks, newChunk([]T{x}))
		return
	}
	c := &v.chunks[ci]
	old := c.data()
	if !c.owned() {
		g.Charge(len(old) * elemSize[T]())
	}
	data := make([]T, 0, len(old)+1)
	data = append(append(append(data, old[:off]...), x), old[off:]...)
	if len(old) < chunkCap {
		*c = newChunk(data)
		return
	}
	// Split: the chunkCap+1 elements become two chunks of half each,
	// separately allocated so either can be freed on its own.
	half := len(data) / 2
	*c = newChunk(slices.Clone(data[:half]))
	v.chunks = slices.Insert(v.chunks, ci+1, newChunk(slices.Clone(data[half:])))
	v.ragged = true
}
