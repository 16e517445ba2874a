package adb

import (
	"math"
	"sort"
	"time"

	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/snapshot"
)

// This file persists and restores the αDB through the versioned binary
// codec of internal/snapshot. Everything the offline phase computes is
// serialized — base and derived databases (with their column
// dictionaries), the inverted entity-lookup index, per-property
// statistics, and the sorted numeric indexes — so a warm boot costs one
// sequential read plus O(n) hash-index rebuilds instead of the full
// precomputation. Per-row and per-code vectors load as chunks cut from
// the decoded arrays; the strength histograms are derived from the pair
// lists, not stored. The row-set memos restart empty, and restored systems
// support incremental inserts exactly like freshly built ones. The
// file is bytes from outside the process: every row number and value
// code it carries is range-checked at decode, so a damaged snapshot
// fails Load instead of panicking inside a later discovery.

// Encode writes the current epoch to a snapshot stream (the caller
// owns the header; see squid.System.Save). The epoch is pinned at call
// time, so the snapshot captures every write acknowledged before the
// call — a drain that publishes its final batch and then encodes loses
// nothing — while inserts landing mid-encode are cleanly absent.
func (a *AlphaDB) Encode(w *snapshot.Writer) { a.Snapshot().Encode(w) }

// Encode writes this epoch to a snapshot stream: one immutable state,
// wait-free with respect to concurrent writers. Shared append-only
// structures (dictionaries, the inverted index) are filtered to the
// epoch's row counts so the snapshot never references rows absent from
// the encoded relations.
func (a *Epoch) Encode(w *snapshot.Writer) {
	// The epoch sequence anchors write-ahead-log replay: a booting
	// system skips log records the snapshot already covers (seq ≤ this)
	// and applies the rest, continuing the chain at the exact sequence
	// the log ends on.
	w.Uvarint(a.seq)
	writeConfig(w, a.cfg)
	w.Varint(int64(a.BuildTime))
	snapshot.WriteDatabase(w, a.DB)
	snapshot.WriteDatabase(w, a.DerivedDB)
	a.encodeInverted(w)

	names := make([]string, 0, len(a.Entities))
	for name := range a.Entities {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		writeEntity(w, a.Entities[name])
	}
}

// Decode restores an αDB from a snapshot stream positioned after the
// header. The restored state shares nothing with the stream; hash
// indexes (primary keys, derived entity ids) are rebuilt into a fresh
// IndexSet, and the result is published under the sequence number the
// snapshot recorded, so the epoch chain continues where it left off.
func Decode(r *snapshot.Reader) (*AlphaDB, error) {
	seq := r.Uvarint()
	cfg := readConfig(r)
	buildTime := time.Duration(r.Varint())
	db := snapshot.ReadDatabase(r)
	derived := snapshot.ReadDatabase(r)
	if r.Err() != nil {
		return nil, r.Err()
	}
	a := &Epoch{
		DB:        db,
		Entities:  make(map[string]*EntityInfo),
		Indexes:   index.NewIndexSet(),
		DerivedDB: derived,
		BuildTime: buildTime,
		cfg:       cfg,
		selCache:  &SelCache{},
		seq:       seq,
	}
	a.decodeInverted(r)
	n := r.Len()
	for i := 0; i < n && r.Err() == nil; i++ {
		info := readEntity(r, a)
		if r.Err() != nil {
			break
		}
		a.Entities[info.Relation] = info
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	a.rowCounts = snapshotRowCounts(db)
	return newAlphaDB(a), nil
}

func writeConfig(w *snapshot.Writer, cfg Config) {
	w.Int(cfg.MaxFactDepth)
	w.Int(cfg.MaxCatDistinct)
	w.Float(cfg.MaxCatRatio)
	w.Int(cfg.Workers)
	writeStringMap(w, cfg.PropertyValueColumn)
	writeStringMap(w, cfg.DisplayColumn)
	keys := sortedKeys(cfg.ExcludeColumns)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		cols := cfg.ExcludeColumns[k]
		w.Uvarint(uint64(len(cols)))
		for _, c := range cols {
			w.String(c)
		}
	}
}

func readConfig(r *snapshot.Reader) Config {
	cfg := Config{
		MaxFactDepth:   r.Int(),
		MaxCatDistinct: r.Int(),
		MaxCatRatio:    r.Float(),
		Workers:        r.Int(),
	}
	cfg.PropertyValueColumn = readStringMap(r)
	cfg.DisplayColumn = readStringMap(r)
	if n := r.Len(); n > 0 {
		cfg.ExcludeColumns = make(map[string][]string, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.String()
			nc := r.Len()
			cols := make([]string, 0, nc)
			for j := 0; j < nc && r.Err() == nil; j++ {
				cols = append(cols, r.String())
			}
			cfg.ExcludeColumns[k] = cols
		}
	}
	return cfg
}

func writeStringMap(w *snapshot.Writer, m map[string]string) {
	keys := sortedKeys(m)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.String(m[k])
	}
}

func readStringMap(r *snapshot.Reader) map[string]string {
	n := r.Len()
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String()
		m[k] = r.String()
	}
	return m
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// encodeInverted writes the inverted index as sorted keys with postings
// referencing base relations/columns by table index, so the on-disk form
// is compact and deterministic.
func (a *Epoch) encodeInverted(w *snapshot.Writer) {
	relNames := a.DB.RelationNames()
	relIdx := make(map[string]int, len(relNames))
	colIdx := make(map[string]map[string]int, len(relNames))
	for i, name := range relNames {
		relIdx[name] = i
		cols := a.DB.Relation(name).ColumnNames()
		m := make(map[string]int, len(cols))
		for j, c := range cols {
			m[c] = j
		}
		colIdx[name] = m
	}
	postings := a.Inverted.PostingsBelow(a.rowLimit)
	keys := sortedKeys(postings)
	w.Uvarint(uint64(len(keys)))
	total := 0
	for _, ps := range postings {
		total += len(ps)
	}
	// Keys, per-key lengths, then the postings as three flat
	// fixed-width blocks — the reader decodes the whole section with
	// four contiguous reads and one backing array.
	lens := make([]int, len(keys))
	ris := make([]int, 0, total)
	cis := make([]int, 0, total)
	rows := make([]int, 0, total)
	for i, key := range keys {
		w.String(key)
		ps := postings[key]
		lens[i] = len(ps)
		for _, p := range ps {
			ris = append(ris, relIdx[p.Relation])
			cis = append(cis, colIdx[p.Relation][p.Column])
			rows = append(rows, p.Row)
		}
	}
	w.Ints(lens)
	w.Ints(ris)
	w.Ints(cis)
	w.Ints(rows)
}

func (a *Epoch) decodeInverted(r *snapshot.Reader) {
	relNames := a.DB.RelationNames()
	colNames := make([][]string, len(relNames))
	for i, name := range relNames {
		colNames[i] = a.DB.Relation(name).ColumnNames()
	}
	n := r.Len()
	keys := make([]string, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		keys[i] = r.String()
	}
	lens := r.Ints()
	ris := r.Ints()
	cis := r.Ints()
	rows := r.Ints()
	if r.Err() != nil {
		return
	}
	total := 0
	for _, l := range lens {
		total += l
	}
	if len(lens) != n || len(ris) != total || len(cis) != total || len(rows) != total {
		r.Fail("inverted payload blocks disagree (%d keys, %d lens, %d/%d/%d postings for total %d)",
			n, len(lens), len(ris), len(cis), len(rows), total)
		return
	}
	postings := make(map[string][]index.Posting, n)
	// One backing array for every posting list: per-key slices are
	// capacity-capped views, so later incremental Inserts copy out
	// instead of clobbering the neighbor list.
	backing := make([]index.Posting, total)
	off := 0
	for i, key := range keys {
		np := lens[i]
		seg := backing[off : off+np : off+np]
		for j := 0; j < np; j++ {
			ri, ci := ris[off+j], cis[off+j]
			if ri >= len(relNames) || ci >= len(colNames[ri]) {
				r.Fail("inverted posting references relation %d column %d out of range", ri, ci)
				return
			}
			seg[j] = index.Posting{Relation: relNames[ri], Column: colNames[ri][ci], Row: rows[off+j]}
		}
		postings[key] = seg
		off += np
	}
	//lint:ignore epochmutate decode-time restore: the epoch under construction is private until newAlphaDB publishes it
	a.Inverted = index.RestoreInverted(postings)
}

func writeAccess(w *snapshot.Writer, ap AccessPath) {
	w.Uvarint(uint64(ap.Type))
	w.String(ap.Column)
	w.String(ap.Fact)
	w.String(ap.FactEntityCol)
	w.String(ap.FactDimCol)
	w.String(ap.Dim)
	w.String(ap.DimPK)
	w.String(ap.DimValueCol)
}

func readAccess(r *snapshot.Reader) AccessPath {
	return AccessPath{
		Type:          PathType(r.Uvarint()),
		Column:        r.String(),
		Fact:          r.String(),
		FactEntityCol: r.String(),
		FactDimCol:    r.String(),
		Dim:           r.String(),
		DimPK:         r.String(),
		DimValueCol:   r.String(),
	}
}

func writeEntity(w *snapshot.Writer, info *EntityInfo) {
	w.String(info.Relation)
	w.String(info.PK)
	w.Int(info.NumRows)
	w.Uvarint(uint64(len(info.Basic)))
	for _, p := range info.Basic {
		writeBasic(w, p)
	}
	w.Uvarint(uint64(len(info.Derived)))
	for _, p := range info.Derived {
		writeDerived(w, p)
	}
}

func readEntity(r *snapshot.Reader, a *Epoch) *EntityInfo {
	name, pk, numRows := r.String(), r.String(), r.Int()
	if r.Err() != nil {
		return nil
	}
	info, err := a.scaffoldEntity(name)
	if err != nil {
		r.Fail("%v", err)
		return nil
	}
	if info.PK != pk || info.NumRows != numRows {
		r.Fail("entity %q: recorded key %q and %d rows, restored relation has key %q and %d rows",
			name, pk, numRows, info.PK, info.NumRows)
		return nil
	}
	nb := r.Len()
	for i := 0; i < nb && r.Err() == nil; i++ {
		p := readBasic(r, a, info)
		if r.Err() == nil {
			info.Basic = append(info.Basic, p)
		}
	}
	nd := r.Len()
	for i := 0; i < nd && r.Err() == nil; i++ {
		p := readDerived(r, a, info)
		if r.Err() == nil {
			info.Derived = append(info.Derived, p)
		}
	}
	info.buildAttrMaps()
	return info
}

func writeBasic(w *snapshot.Writer, p *BasicProperty) {
	w.String(p.Attr)
	w.Uvarint(uint64(p.Kind))
	writeAccess(w, p.Access)
	w.Bool(p.MultiValued)
	w.Int(p.numEntities)
	if p.Kind == Categorical {
		w.Int(p.numValues)
		// Jagged lists flatten to (lengths, payload) block pairs: one
		// contiguous read each on load, sliced back per code/row.
		lens := make([]int, p.catRows.Len())
		var flat []int
		for code, rows := range p.catRows.All() {
			lens[code] = len(rows)
			flat = append(flat, rows...)
		}
		w.Ints(lens)
		w.Ints(flat)
		vlens := make([]int, p.valsByRow.Len())
		var vflat []int32
		for row, codes := range p.valsByRow.All() {
			vlens[row] = len(codes)
			vflat = append(vflat, codes...)
		}
		w.Ints(vlens)
		w.Int32s(vflat)
		return
	}
	// Numeric: the per-row cells (absent ones hold 0) with their
	// presence bitmap, then the sorted (value, row) index.
	present := make([]bool, p.numByRow.Len())
	vals := make([]float64, 0, p.numByRow.Len())
	for row, v := range p.numByRow.All() {
		vals = append(vals, v)
		_, present[row] = p.NumValue(row)
	}
	w.Bools(present)
	w.Floats(vals)
	idxVals, idxRows := p.numIdx.RawPairs()
	w.Floats(idxVals)
	w.Ints(idxRows)
}

// sourceColumn resolves the column whose dictionary keys a categorical
// property's statistics, from its access path.
func (a *Epoch) sourceColumn(entityRel *relation.Relation, access AccessPath) *relation.Column {
	switch access.Type {
	case Direct:
		return entityRel.Column(access.Column)
	case FKDim, FactDim:
		if dim := a.DB.Relation(access.Dim); dim != nil {
			return dim.Column(access.DimValueCol)
		}
	case AttrTable:
		if side := a.DB.Relation(access.Fact); side != nil {
			return side.Column(access.Column)
		}
	}
	return nil
}

func readBasic(r *snapshot.Reader, a *Epoch, info *EntityInfo) *BasicProperty {
	p := &BasicProperty{
		Entity: info.Relation,
		Attr:   r.String(),
		Kind:   PropKind(r.Uvarint()),
	}
	p.Access = readAccess(r)
	p.MultiValued = r.Bool()
	p.numEntities = r.Int()
	p.memo = newRowSetMemo(a.selCache)
	if r.Err() != nil {
		return p
	}
	if p.numEntities != info.NumRows {
		r.Fail("property %s.%s: %d entities recorded for a %d-row relation", info.Relation, p.Attr, p.numEntities, info.NumRows)
		return p
	}
	if p.Kind == Categorical {
		src := a.sourceColumn(info.rel, p.Access)
		if src == nil || src.Dict() == nil {
			r.Fail("property %s.%s: cannot resolve source dictionary", info.Relation, p.Attr)
			return p
		}
		p.dict = src.Dict()
		p.numValues = r.Int()
		lens, rows := r.Ints(), r.Ints()
		catRows, ok := sliceJaggedInts(r, lens, rows)
		if !ok || len(lens) > p.dict.Len() || !allBelow(rows, info.NumRows) {
			r.Fail("property %s.%s: catRows payload mismatch or out of range", info.Relation, p.Attr)
			return p
		}
		vlens, codes := r.Ints(), r.Int32s()
		valsByRow, ok := sliceJaggedInt32s(r, vlens, codes)
		if !ok || len(vlens) != info.NumRows || !allBelow(codes, p.dict.Len()) {
			r.Fail("property %s.%s: valsByRow payload mismatch or out of range", info.Relation, p.Attr)
			return p
		}
		// Chunks are capacity-capped subslices of the decoded tables.
		p.catRows, p.valsByRow = index.ChunkedOf(catRows), index.ChunkedOf(valsByRow)
		return p
	}
	present := r.Bools()
	vals := r.Floats()
	if len(present) != info.NumRows || len(vals) != info.NumRows {
		r.Fail("property %s.%s: %d presence bits and %d cells for %d rows", info.Relation, p.Attr, len(present), len(vals), info.NumRows)
		return p
	}
	numHas := make([]uint64, (len(present)+63)/64)
	for row, ok := range present {
		if ok {
			numHas[row>>6] |= 1 << (row & 63)
		}
	}
	p.numByRow, p.numHas = index.ChunkedOf(vals), index.ChunkedOf(numHas)
	idxVals, idxRows := r.Floats(), r.Ints()
	if len(idxVals) != len(idxRows) || !sort.Float64sAreSorted(idxVals) || !allBelow(idxRows, info.NumRows) {
		r.Fail("property %s.%s: numeric index unsorted, ragged or out of range", info.Relation, p.Attr)
		return p
	}
	p.numIdx = index.RestoreNumericRows(idxVals, idxRows)
	return p
}

// allBelow reports whether every element of xs lies in [0, limit) — the
// range check on row numbers and value codes adopted from a file.
func allBelow[T int | int32](xs []T, limit int) bool {
	for _, x := range xs {
		if x < 0 || int(x) >= limit {
			return false
		}
	}
	return true
}

// sliceJaggedInts rebuilds a jagged [][]int from its flattened
// (lengths, payload) form. Segments are capacity-capped slices of one
// backing array, so later in-place appends (incremental maintenance)
// copy out instead of clobbering the neighbor segment.
func sliceJaggedInts(r *snapshot.Reader, lens, flat []int) ([][]int, bool) {
	if r.Err() != nil {
		return nil, true // defer to the sticky error
	}
	out := make([][]int, len(lens))
	off := 0
	for i, n := range lens {
		if n < 0 || off+n > len(flat) {
			return nil, false
		}
		if n > 0 {
			out[i] = flat[off : off+n : off+n]
		}
		off += n
	}
	return out, off == len(flat)
}

// sliceJaggedInt32s is sliceJaggedInts for int32 payloads.
func sliceJaggedInt32s(r *snapshot.Reader, lens []int, flat []int32) ([][]int32, bool) {
	if r.Err() != nil {
		return nil, true
	}
	out := make([][]int32, len(lens))
	off := 0
	for i, n := range lens {
		if n < 0 || off+n > len(flat) {
			return nil, false
		}
		if n > 0 {
			out[i] = flat[off : off+n : off+n]
		}
		off += n
	}
	return out, off == len(flat)
}

func writeDerived(w *snapshot.Writer, p *DerivedProperty) {
	w.String(p.Attr)
	w.String(p.Via)
	w.String(p.ViaPK)
	w.String(p.Fact1)
	w.String(p.Fact1EntityCol)
	w.String(p.Fact1ViaCol)
	writeAccess(w, p.Target)
	w.String(p.RelName)
	w.Int(p.numEntities)
	// Per-code statistics flatten to three whole-property blocks:
	// lengths, entity rows and counts. The strength histograms are
	// derived from the counts on load.
	lens := make([]int, p.codes.Len())
	var rows, counts []int
	for code, cs := range p.codes.All() {
		lens[code] = cs.pairs.Len()
		for _, vc := range cs.pairs.All() {
			rows = append(rows, int(vc.entityRow))
			counts = append(counts, int(vc.count))
		}
	}
	w.Ints(lens)
	w.Ints(rows)
	w.Ints(counts)
}

func readDerived(r *snapshot.Reader, a *Epoch, info *EntityInfo) *DerivedProperty {
	p := &DerivedProperty{
		Entity:         info.Relation,
		Attr:           r.String(),
		Via:            r.String(),
		ViaPK:          r.String(),
		Fact1:          r.String(),
		Fact1EntityCol: r.String(),
		Fact1ViaCol:    r.String(),
	}
	p.Target = readAccess(r)
	p.RelName = r.String()
	p.numEntities = r.Int()
	p.memo = newRowSetMemo(a.selCache)
	if r.Err() != nil {
		return p
	}
	rel := a.DerivedDB.Relation(p.RelName)
	if rel == nil || rel.Column("value") == nil || rel.Column("value").Dict() == nil {
		r.Fail("derived property %s.%s: relation %q missing from restored derived database",
			info.Relation, p.Attr, p.RelName)
		return p
	}
	p.rel = rel
	p.byEntity = a.Indexes.IntHash(rel, "entity_id")
	lens := r.Ints()
	rows := r.Ints()
	counts := r.Ints()
	if r.Err() != nil {
		return p
	}
	total := 0
	for _, n := range lens {
		total += n
	}
	if len(rows) != total || len(counts) != total {
		r.Fail("derived property %s.%s: payload blocks disagree (%d lens, %d rows, %d counts)",
			info.Relation, p.Attr, total, len(rows), len(counts))
		return p
	}
	// Pairs are stored 32 bits wide: a row or strength past that is
	// rejected here, before the narrowing could truncate it into range.
	if len(lens) > p.valueDict().Len() || !allBelow(rows, min(info.NumRows, math.MaxUint32)) {
		r.Fail("derived property %s.%s: value codes or entity rows out of range", info.Relation, p.Attr)
		return p
	}
	// A strength counts fact rows, so the database's row count bounds
	// it — and with it the histogram a damaged count could ask for.
	maxCount := min(a.DB.TotalRows(), math.MaxUint32)
	codes := make([]codeStats, len(lens))
	off := 0
	for code, n := range lens {
		var pairs index.Chunked[valCount]
		for i := off; i < off+n; i++ {
			// StrengthOfCode binary-searches the rows: out of order, it
			// would silently answer 0.
			if i > off && rows[i] <= rows[i-1] {
				r.Fail("derived property %s.%s: entity rows of code %d are not strictly ascending", info.Relation, p.Attr, code)
				return p
			}
			if counts[i] < 1 || counts[i] > maxCount {
				r.Fail("derived property %s.%s: strength %d of code %d out of range", info.Relation, p.Attr, counts[i], code)
				return p
			}
			pairs.Append(nil, valCount{entityRow: uint32(rows[i]), count: uint32(counts[i])})
		}
		codes[code] = newCodeStats(pairs)
		off += n
	}
	p.codes = index.ChunkedOf(codes)
	return p
}
