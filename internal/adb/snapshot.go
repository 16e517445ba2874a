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
// base database (with its column dictionaries), the build configuration
// and the property descriptors, and it ends with a CRC32 trailer over
// every byte before it. Every statistic is a function of the base facts,
// so the file holds none: Decode parses and checks the descriptors,
// verifies the trailer, and only then derives every statistic with the
// function the cold build calls for it — foldCategorical for a
// categorical property's posting lists and resolved path, buildNumStats
// for a numeric property's value order, deriveAll for the derived
// relations with their pair lists and histograms (under the names the
// file records), BuildInvertedParallel for the entity-lookup index and
// residentIndexes for the hash indexes — so a loaded αDB equals a built
// one by construction. After inserts a load also restores the cold
// build's derived row order and value codes, which incremental
// maintenance appends to instead. The row-set memos restart empty, and
// restored systems support incremental inserts exactly like freshly
// built ones. The file is bytes from outside the process: the trailer
// turns a flipped bit or a cut into an error, and what the file carries
// is checked where it is read — access paths against the schema, derived
// relation names against each other and the base relations — so a
// damaged snapshot fails Load instead of panicking inside a later
// discovery.

// Encode writes the current epoch to a snapshot stream and closes it
// with the CRC32 trailer (the caller owns the header; see
// squid.System.Save). The epoch is pinned at call
// time, so the snapshot captures every write acknowledged before the
// call — a drain that publishes its final batch and then encodes loses
// nothing — while inserts landing mid-encode are cleanly absent.
func (a *AlphaDB) Encode(w *snapshot.Writer) { a.Snapshot().Encode(w) }

// Encode writes this epoch to a snapshot stream: one immutable state,
// wait-free with respect to concurrent writers. Only facts are written
// (see the file comment), so rows a racing writer appended to a shared
// structure cannot reach the stream.
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
// header. It reads and checks everything the file holds, then the
// trailer, and derives nothing before the trailer passes: the hash
// indexes, the inverted index, every basic property's statistics
// (deriveBasic) and the derived properties (deriveAll) are built by the
// functions buildEpoch builds them with, fanned over the loading
// process's own workers. The restored state shares nothing with the
// stream, and it is published under the sequence number the snapshot
// recorded, so the epoch chain continues where it left off.
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
		BuildTime: buildTime,
		cfg:       cfg,
		selCache:  &SelCache{},
		seq:       seq,
	}
	var basic []*BasicProperty
	var derived []*DerivedProperty
	n := r.Len()
	for i := 0; i < n && r.Err() == nil; i++ {
		info := readEntity(r, a)
		if r.Err() != nil {
			break
		}
		a.Entities[info.Relation] = info
		basic = append(basic, info.Basic...)
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

	// The derive wave. The inverted index reads only the base database:
	// it builds beside the rest, as buildEpoch builds it beside property
	// discovery.
	workers := cfg.workers()
	a.Indexes = residentIndexes(db, workers)
	invDone := make(chan struct{})
	go func() {
		a.Inverted = index.BuildInvertedParallel(db, workers)
		close(invDone)
	}()
	for _, info := range a.Entities {
		info.pkIndex = a.readHash(info.rel, info.PK)
	}
	adj := adjacencies{}
	for _, p := range basic {
		if p.Access.Type == FactDim && a.isEntity(p.Access.Dim) {
			adj.need(p.link())
		}
	}
	for _, p := range derived {
		adj.need(p.link())
	}
	a.walkLinks(adj, workers)
	index.RunBounded(len(basic), workers, func(i int) { a.deriveBasic(basic[i], adj) })
	a.deriveAll(derived, adj)
	a.names = a.nameTable()
	<-invDone
	return newAlphaDB(a), nil
}

// deriveBasic builds a loaded basic property's statistics with the
// function the cold build calls for its kind, an entity association over
// its link's adjacency in adj. A numeric property's path is always
// Direct: every other path ends at a TEXT column (readBasic).
func (a *Epoch) deriveBasic(p *BasicProperty, adj adjacencies) {
	if p.Kind == Numeric {
		p.buildNumStats(a.DB.Relation(p.Entity).Column(p.Access.Column))
		return
	}
	p.foldCategorical(a, adj[p.link()])
}

// writeConfig writes what the build configuration decides about the
// αDB. Workers is left out: it is how many goroutines the building
// process used, and a loaded αDB fans out over its own GOMAXPROCS.
func writeConfig(w *snapshot.Writer, cfg Config) {
	w.Int(cfg.MaxFactDepth)
	w.Int(cfg.MaxCatDistinct)
	w.Float(cfg.MaxCatRatio)
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
	info, err := entityInfo(a.DB, name)
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

// readBasic reads a basic property's descriptor and checks it against
// the restored schema; its statistics are derived once the whole stream
// has passed its trailer (deriveBasic).
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
	}
	return p
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
