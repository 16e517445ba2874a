package adb

import (
	"sort"
	"time"

	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/snapshot"
)

// This file persists and restores the αDB through the versioned binary
// codec of internal/snapshot. A snapshot stores facts, each once: the
// base database (with its column dictionaries), the property
// descriptors, and the per-entity forward statistics — a categorical
// property's value codes per row (a numeric property's values are its
// column's cells) — and ends with a CRC32 trailer over every byte before
// it. The derived relations are counts over the base facts, so the file
// holds only their descriptors: Decode materializes them with deriveAll,
// the cold build's own wave, under the names the file records. Every
// inverse — the inverted entity-lookup index, the per-value posting
// lists, the derived pair lists with their strength histograms, the
// numeric value orders, the hash indexes — is rebuilt at load by the
// constructor the cold build uses, so a loaded αDB equals a built one by
// construction. After inserts a load also restores the cold build's
// derived row order and value codes, which incremental maintenance
// appends to instead. The row-set memos restart empty, and restored
// systems support incremental inserts exactly like freshly built ones.
// The file is bytes from outside the process: the trailer turns a
// flipped bit or a cut into an error, and what the file carries is
// checked where it is read — value codes against their dictionary,
// access paths against the schema, derived relation names against each
// other and the base relations — so a damaged snapshot fails Load
// instead of panicking inside a later discovery.

// Encode writes the current epoch to a snapshot stream and closes it
// with the CRC32 trailer (the caller owns the header; see
// squid.System.Save). The epoch is pinned at call
// time, so the snapshot captures every write acknowledged before the
// call — a drain that publishes its final batch and then encodes loses
// nothing — while inserts landing mid-encode are cleanly absent.
func (a *AlphaDB) Encode(w *snapshot.Writer) { a.Snapshot().Encode(w) }

// Encode writes this epoch to a snapshot stream: one immutable state,
// wait-free with respect to concurrent writers. Only forward data is
// written (see the file comment); the shared append-only inverted index
// is not, so rows a racing writer appended cannot reach the stream.
func (a *Epoch) Encode(w *snapshot.Writer) {
	// The epoch sequence anchors write-ahead-log replay: a booting
	// system skips log records the snapshot already covers (seq ≤ this)
	// and applies the rest, continuing the chain at the exact sequence
	// the log ends on.
	w.Uvarint(a.seq)
	writeConfig(w, a.cfg)
	w.Varint(int64(a.BuildTime))
	snapshot.WriteDatabase(w, a.DB)

	names := make([]string, 0, len(a.Entities))
	for name := range a.Entities {
		names = append(names, name)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		writeEntity(w, a.Entities[name])
	}
	w.Trailer()
}

// Decode restores an αDB from a snapshot stream positioned after the
// header. It checks the trailer once it has read everything else, before
// it derives anything. The restored state shares nothing with the
// stream; the derived relations and every inverse of the stored data are
// rebuilt by the functions buildEpoch builds them with
// (BuildInvertedParallel, buildCatStats, buildNumStats, deriveAll,
// residentIndexes), and the result is published under the sequence
// number the snapshot recorded, so the epoch chain continues where it
// left off.
func Decode(r *snapshot.Reader) (*AlphaDB, error) {
	seq := r.Uvarint()
	cfg := readConfig(r)
	buildTime := time.Duration(r.Varint())
	db := snapshot.ReadDatabase(r)
	if r.Err() != nil {
		return nil, r.Err()
	}
	a := &Epoch{
		DB:        db,
		Entities:  make(map[string]*EntityInfo),
		Indexes:   residentIndexes(db, cfg.workers()),
		DerivedDB: relation.NewDatabase(db.Name + "_alpha"),
		BuildTime: buildTime,
		cfg:       cfg,
		selCache:  &SelCache{},
		seq:       seq,
	}
	// The inverted index reads only the base database: it builds beside
	// the rest of the decode, as buildEpoch builds it beside property
	// discovery. The deferred receive also covers the error returns.
	invDone := make(chan struct{})
	go func() {
		a.Inverted = index.BuildInvertedParallel(db, cfg.workers())
		close(invDone)
	}()
	defer func() { <-invDone }()
	var derived []*DerivedProperty
	n := r.Len()
	for i := 0; i < n && r.Err() == nil; i++ {
		info := readEntity(r, a)
		if r.Err() != nil {
			break
		}
		a.Entities[info.Relation] = info
		derived = append(derived, info.Derived...)
	}
	// The stream ends here: nothing is derived from bytes its checksum
	// does not vouch for.
	r.Trailer()
	if r.Err() != nil {
		return nil, r.Err()
	}
	// An insert walks every relation the schema marks as an entity and
	// reads its entry: the entries are exactly the marked relations.
	marked := db.EntityRelations()
	for _, name := range marked {
		if a.Entities[name] == nil {
			return nil, r.Fail("entity relation %q has no entity entry", name)
		}
	}
	if len(a.Entities) != len(marked) {
		return nil, r.Fail("%d entity entries for %d entity relations", len(a.Entities), len(marked))
	}
	// A fact insert reads the entity key through every foreign key that
	// references an entity relation.
	for _, name := range db.RelationNames() {
		for _, fk := range db.Relation(name).Foreign {
			if a.Entities[fk.RefRelation] != nil && !intColumn(db.Relation(name), fk.Column) {
				return nil, r.Fail("relation %q: foreign key %q into entity %q is not an INTEGER column", name, fk.Column, fk.RefRelation)
			}
		}
	}
	// A derived relation is registered under its stored name, which the
	// execution engine and the Q5 text read beside the base relations.
	names := make(map[string]bool, len(derived))
	for _, p := range derived {
		if names[p.RelName] || db.Relation(p.RelName) != nil {
			return nil, r.Fail("derived relation name %q repeats or shadows a base relation", p.RelName)
		}
		names[p.RelName] = true
	}
	a.deriveAll(derived)
	<-invDone
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
		w.Strings(cfg.ExcludeColumns[k])
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
		cfg.ExcludeColumns = make(map[string][]string)
		for i := 0; i < n && r.Err() == nil; i++ {
			k := r.String()
			cfg.ExcludeColumns[k] = r.Strings()
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
	m := make(map[string]string)
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
		// numValues is derived on load; the recorded one is a cross-check.
		w.Int(p.numValues)
		// The per-row code lists are a (lengths, payload) block pair:
		// one contiguous read each on load, where the payload becomes the
		// code array as it is.
		vlens := make([]int, p.valsByRow.Len())
		var vflat []int32
		for row := range vlens {
			codes := p.valsByRow.At(row)
			vlens[row] = len(codes)
			vflat = append(vflat, codes...)
		}
		w.Ints(vlens)
		w.Int32s(vflat)
	}
	// A numeric property's values are its column's cells: the
	// descriptor is all there is to write.
}

// column returns the column of rel with that name and type, or nil;
// rel may be nil.
func column(rel *relation.Relation, name string, t relation.ColType) *relation.Column {
	if rel == nil {
		return nil
	}
	if c := rel.Column(name); c != nil && c.Type == t {
		return c
	}
	return nil
}

// intColumn reports whether rel has an INTEGER column of that name —
// what every key a property path walks must be.
func intColumn(rel *relation.Relation, name string) bool {
	return column(rel, name, relation.Int) != nil
}

// sourceColumn resolves an access path, starting at the relation from,
// against the restored schema and returns the column the property's
// values come from — the one whose dictionary keys a categorical
// property's statistics. It returns nil when the path names a relation
// or column that does not exist, a key that is not INTEGER or (past
// from itself) a value column that is not TEXT: what an insert routed
// along the path would otherwise find out by panicking.
func (a *Epoch) sourceColumn(from *relation.Relation, access AccessPath) *relation.Column {
	switch access.Type {
	case Direct:
		return from.Column(access.Column)
	case FKDim:
		if !intColumn(from, access.Column) {
			return nil
		}
	case FactDim:
		fact := a.DB.Relation(access.Fact)
		if !intColumn(fact, access.FactEntityCol) || !intColumn(fact, access.FactDimCol) {
			return nil
		}
	case AttrTable:
		side := a.DB.Relation(access.Fact)
		if !intColumn(side, access.FactEntityCol) {
			return nil
		}
		return column(side, access.Column, relation.String)
	default:
		return nil
	}
	dim := a.DB.Relation(access.Dim)
	if !intColumn(dim, access.DimPK) {
		return nil
	}
	return column(dim, access.DimValueCol, relation.String)
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
	src := a.sourceColumn(info.rel, p.Access)
	if src == nil || p.Kind > Numeric || (p.Kind == Categorical) != (src.Type == relation.String) {
		r.Fail("property %s.%s: access path does not resolve to a column of its kind", info.Relation, p.Attr)
		return p
	}
	if p.Kind == Categorical {
		p.dict = src.Dict()
		numValues := r.Int()
		vlens, codes := r.Ints(), r.Int32s()
		if r.Err() != nil {
			return p
		}
		offs, ok := offsetsOf(vlens, len(codes))
		if !ok || len(vlens) != info.NumRows || !allBelow(codes, p.dict.Len()) {
			r.Fail("property %s.%s: valsByRow payload mismatch or out of range", info.Relation, p.Attr)
			return p
		}
		p.buildCatStats(index.JaggedOf(offs, codes))
		if p.numValues != numValues {
			r.Fail("property %s.%s: %d distinct values recorded, the rows hold %d", info.Relation, p.Attr, numValues, p.numValues)
		}
		return p
	}
	p.buildNumStats(src)
	return p
}

// allBelow reports whether every code lies in [0, limit) — the range
// check on value codes adopted from a file.
func allBelow(codes []int32, limit int) bool {
	for _, c := range codes {
		if c < 0 || int(c) >= limit {
			return false
		}
	}
	return true
}

// offsetsOf turns the per-row lengths of a (lengths, payload) block
// into the row offsets over a payload of total elements; ok is false
// unless every length is non-negative and they cut exactly the payload.
func offsetsOf(lens []int, total int) (offs []uint32, ok bool) {
	offs = make([]uint32, len(lens)+1)
	off := 0
	for i, n := range lens {
		if n < 0 || n > total-off {
			return nil, false
		}
		off += n
		offs[i+1] = uint32(off)
	}
	return offs, off == total
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
	if r.Err() != nil {
		return p
	}
	if p.numEntities != info.NumRows {
		r.Fail("derived property %s.%s: %d entities recorded for a %d-row relation", info.Relation, p.Attr, p.numEntities, info.NumRows)
		return p
	}
	// The path must be one the build takes: the associated entity's
	// primary key, and a degree or a TEXT value of the associated entity.
	via, fact1 := a.DB.Relation(p.Via), a.DB.Relation(p.Fact1)
	resolves := via != nil && p.ViaPK == via.PrimaryKey && intColumn(via, p.ViaPK) &&
		intColumn(fact1, p.Fact1EntityCol) && intColumn(fact1, p.Fact1ViaCol)
	switch p.Target.Type {
	case Degree:
	case Direct, FKDim, FactDim:
		if resolves {
			src := a.sourceColumn(via, p.Target)
			resolves = src != nil && src.Type == relation.String
		}
	default:
		resolves = false
	}
	if !resolves {
		r.Fail("derived property %s.%s: association path does not resolve against the schema", info.Relation, p.Attr)
	}
	return p
}
