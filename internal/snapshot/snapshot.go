// Package snapshot implements the versioned binary format that persists
// an abduction-ready database to disk. A snapshot stores each fact once,
// and only facts.
//
// Stored: the epoch sequence number, the build configuration's fact-table
// depth, the base database (schemas, column
// storage, per-column string dictionaries), the property descriptors,
// and a CRC32 trailer over every byte before it.
//
// Derived at load, once the trailer has passed, by the constructors the
// cold build uses: the categorical properties' per-row value codes and
// posting lists, the numeric value orders, the derived properties (each
// a count over the base facts, derived from its stored descriptor, its
// relation named as stored) as their (entity, strength) pair lists and
// strength histograms, the dictionaries' normal indexes and every hash
// and code index — so none of them can disagree with the facts they come
// from.
//
// # Version-compatibility policy
//
// Every snapshot starts with the magic "SQAS" and a format version
// (currently Version). The policy is strict equality: a reader only
// accepts snapshots whose version matches its own, and returns
// ErrVersion otherwise — snapshots are cheap, derived artifacts, so the
// upgrade path is "rebuild from the source database and save again",
// never in-place migration. Any change to the byte layout (new fields,
// reordered sections, changed encodings) MUST bump Version; fields may
// never be re-interpreted under an existing version number. Snapshots
// are architecture-independent: all integers are varint-encoded
// little-endian style, floats are IEEE-754 bit patterns.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Magic identifies a SQuID αDB snapshot stream.
const Magic = "SQAS"

// Version is the current snapshot format version. Bump on ANY layout
// change (see the package comment for the compatibility policy).
// History: v2 added the αDB epoch sequence number (the write-ahead
// log's replay anchor); v3 dropped the three blocks that stored a
// statistic twice (entity row→id table, per-code entity counts, the
// numeric value multiset beside the value→row index); v4 dropped the
// sorted strength multiset of every derived value (the histogram is
// derived from the pair counts on load) and stores a numeric property's
// cells as one flat per-row block beside its presence bitmap; v5 dropped
// every inverse of the stored data (the inverted index, the per-value
// posting lists, the derived pair lists, the sorted numeric indexes),
// which load now derives; v6 dropped a numeric property's cells and
// presence bitmap, which load reads from the entity column they copied;
// v7 dropped the derived relations, which load materializes from the
// base database, and added the CRC32 trailer; v8 dropped the categorical
// properties' per-row value codes, which load folds from the base
// database, and the building process's worker count; v9 stores an
// INTEGER column as a base, an offset width of 1, 2, 4 or 8 bytes and
// one offset a row, where v8 stored 8 bytes a cell; v10 stores the build
// configuration as its fact-table depth alone, dropping the categorical
// guards (now constants) and three column maps no build set.
const Version = 10

// ErrVersion reports a snapshot whose format version does not match
// this build's Version.
var ErrVersion = errors.New("snapshot: unsupported format version")

// maxLen caps length prefixes on read, bounding allocations when a
// corrupt or truncated stream is fed to the reader.
const maxLen = 1 << 28

// Writer encodes snapshot primitives with a sticky error, so encoding
// code reads as straight-line writes and checks the error once. Slices
// encode as one contiguous block (element count, byte length, payload),
// so readers decode from a single buffered read instead of per-byte
// varint pulls — the difference between an O(read) warm boot and one
// dominated by bufio call overhead.
type Writer struct {
	w       *bufio.Writer
	err     error
	crc     uint32 // CRC32 (IEEE) of every byte written
	buf     [binary.MaxVarintLen64]byte
	scratch []byte
}

// NewWriter creates a buffered snapshot writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Flush flushes the underlying buffer and returns the sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// Header writes the magic and format version.
func (w *Writer) Header() {
	w.raw([]byte(Magic))
	w.Uvarint(Version)
}

func (w *Writer) raw(b []byte) {
	if w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, b)
	_, w.err = w.w.Write(b)
}

// Trailer writes the CRC32 (IEEE) of every byte written before it, four
// bytes little-endian: the last field of a snapshot.
func (w *Writer) Trailer() {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w.crc)
	w.raw(b[:])
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.raw(w.buf[:n])
}

// Varint writes a signed (zigzag) varint.
func (w *Writer) Varint(v int64) {
	n := binary.PutVarint(w.buf[:], v)
	w.raw(w.buf[:n])
}

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Bool writes a single byte 0/1.
func (w *Writer) Bool(b bool) {
	if b {
		w.raw([]byte{1})
	} else {
		w.raw([]byte{0})
	}
}

// Float writes an IEEE-754 bit pattern.
func (w *Writer) Float(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.raw(b[:])
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.raw([]byte(s))
}

// Strings writes a counted list of strings.
func (w *Writer) Strings(xs []string) {
	w.Uvarint(uint64(len(xs)))
	for _, x := range xs {
		w.String(x)
	}
}

// Floats writes a float slice as one fixed-width block.
func (w *Writer) Floats(xs []float64) {
	w.Uvarint(uint64(len(xs)))
	if len(xs) == 0 {
		return
	}
	buf := w.scratch[:0]
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	w.scratch = buf
	w.raw(buf)
}

// Block writes b as it is, with no length prefix: a block whose length
// the reader knows from what precedes it (an INTEGER column's offsets,
// a row count times their width).
func (w *Writer) Block(b []byte) { w.raw(b) }

// Int32s writes an int32 slice as one fixed-width block (two's
// complement, so dictionary codes including the NoCode sentinel round
// trip).
func (w *Writer) Int32s(xs []int32) {
	w.Uvarint(uint64(len(xs)))
	if len(xs) == 0 {
		return
	}
	buf := w.scratch[:0]
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	w.scratch = buf
	w.raw(buf)
}

// Bools writes a length-prefixed bit-packed bool slice.
func (w *Writer) Bools(xs []bool) {
	w.Uvarint(uint64(len(xs)))
	var cur byte
	for i, x := range xs {
		if x {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			w.raw([]byte{cur})
			cur = 0
		}
	}
	if len(xs)%8 != 0 {
		w.raw([]byte{cur})
	}
}

// Reader decodes snapshot primitives with a sticky error.
type Reader struct {
	r       *crcReader
	err     error
	scratch []byte
}

// crcReader keeps the CRC32 (IEEE) of the bytes the Reader consumed —
// not of what bufio read ahead.
type crcReader struct {
	*bufio.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.Reader.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.Reader.ReadByte()
	if err == nil {
		c.crc = crc32.Update(c.crc, crc32.IEEETable, []byte{b})
	}
	return b, err
}

// take reads n bytes into the reusable scratch buffer; the returned
// slice is valid until the next take. The buffer grows as the bytes
// arrive, so a damaged length prefix costs what the stream holds, not
// what the prefix claims.
func (r *Reader) take(n int) []byte {
	buf := r.scratch[:0]
	for len(buf) < n && r.err == nil {
		step := min(n-len(buf), 1<<20)
		buf = slices.Grow(buf, step)[:len(buf)+step]
		r.read(buf[len(buf)-step:])
	}
	if r.err != nil {
		return nil
	}
	r.scratch = buf
	return buf
}

// NewReader creates a buffered snapshot reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: &crcReader{Reader: bufio.NewReaderSize(r, 1<<16)}}
}

// Trailer reads what Writer.Trailer wrote and fails the stream unless it
// is the CRC32 of every byte read before it: a flipped bit or a cut
// anywhere in the stream is an error here, whatever it decoded to.
func (r *Reader) Trailer() {
	want := r.r.crc
	var b [4]byte
	r.read(b[:])
	if r.err == nil && binary.LittleEndian.Uint32(b[:]) != want {
		r.Fail("checksum mismatch: the stream is damaged")
	}
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// Fail records an error (decoding validation hooks) and returns it.
func (r *Reader) Fail(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
	return r.err
}

// Header reads and verifies the magic and version.
func (r *Reader) Header() {
	var magic [4]byte
	r.read(magic[:])
	if r.err == nil && string(magic[:]) != Magic {
		r.err = fmt.Errorf("snapshot: bad magic %q (not a SQuID snapshot)", magic)
		return
	}
	v := r.Uvarint()
	if r.err == nil && v != Version {
		r.err = fmt.Errorf("%w: snapshot has version %d, this build reads %d (rebuild and re-save)",
			ErrVersion, v, Version)
	}
}

func (r *Reader) read(b []byte) {
	if r.err != nil {
		return
	}
	_, r.err = io.ReadFull(r.r, b)
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = err
		return 0
	}
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = err
		return 0
	}
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	var b [1]byte
	r.read(b[:])
	return r.err == nil && b[0] != 0
}

// Float reads an IEEE-754 bit pattern.
func (r *Reader) Float() float64 {
	var b [8]byte
	r.read(b[:])
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// Len reads a length prefix, validating it against maxLen.
func (r *Reader) Len() int {
	n := r.Uvarint()
	if r.err == nil && n > maxLen {
		r.err = fmt.Errorf("snapshot: implausible length %d (corrupt stream)", n)
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	return string(r.take(r.Len()))
}

// Strings reads a counted list of strings into a slice of exactly their
// number: a dictionary adopts it (relation.RestoreDict), so spare room
// would stay resident.
func (r *Reader) Strings() []string {
	n := r.Len()
	// Every entry takes at least a byte of stream, so the list grows with
	// what was read instead of being sized from the prefix, and is copied
	// to its exact size at the end.
	var out []string
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.String())
	}
	if cap(out) == len(out) {
		return out
	}
	return append(make([]string, 0, len(out)), out...)
}

// Floats reads a fixed-width float block.
func (r *Reader) Floats() []float64 {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	buf := r.take(n * 8)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out
}

// Block reads n bytes that Writer.Block wrote into a slice of their
// own, which the caller adopts.
func (r *Reader) Block(n int) []byte {
	buf := r.take(n)
	if r.err != nil {
		return nil
	}
	return append(make([]byte, 0, n), buf...)
}

// Int32s reads a fixed-width int32 block.
func (r *Reader) Int32s() []int32 {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	buf := r.take(n * 4)
	if r.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out
}

// Bools reads a length-prefixed bit-packed bool slice.
func (r *Reader) Bools() []bool {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	b := r.take((n + 7) / 8)
	if r.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = b[i/8]&(1<<(i%8)) != 0
	}
	return out
}
