package adb

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"squid/internal/index"
	"squid/internal/relation"
)

// Config tunes αDB construction.
type Config struct {
	// MaxFactDepth bounds derived-property discovery; the paper
	// restricts it to two fact tables (§5). Depth 1 enables derived
	// properties over the associated entity's direct/FK attributes;
	// depth 2 additionally walks a second fact table (persontogenre).
	// 0 means 2; Build refuses a depth outside 0..2.
	MaxFactDepth int
	// Workers bounds the offline build's worker pool: basic-property
	// stats, derived-property walks, the dictionaries' normal indexes,
	// and the resident hash and code indexes fan out across this many
	// goroutines. 0 means GOMAXPROCS; 1 forces a serial build. Output is
	// deterministic regardless of the worker count. It is a setting of
	// the running process: a snapshot does not record it, and a loaded
	// αDB reports 0.
	Workers int
}

// workers resolves the Workers knob: 0 means GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// DefaultConfig returns the configuration used throughout the paper's
// experiments: derived properties up to two fact tables deep.
func DefaultConfig() Config { return Config{MaxFactDepth: 2} }

// EntityInfo gathers everything the online phase needs about one entity
// relation: its semantic properties with statistics and lookup indexes.
type EntityInfo struct {
	Relation string
	PK       string
	NumRows  int

	Basic   []*BasicProperty
	Derived []*DerivedProperty

	rel     *relation.Relation
	pkIndex *index.IntHash

	// Name→property maps, built with the property lists (finishEntity,
	// readEntity, epochBuilder.finalize); nil on a property-less
	// EntityInfo (EphemeralEntity), where a lookup finds nothing.
	basicByAttr   map[string]*BasicProperty
	derivedByAttr map[string]*DerivedProperty
}

// RowByID resolves an entity id to its row in the entity relation.
func (e *EntityInfo) RowByID(id int64) (int, bool) { return e.pkIndex.First(id) }

// IDByRow resolves a row to the entity id (the primary-key cell).
func (e *EntityInfo) IDByRow(row int) int64 { return e.rel.Column(e.PK).Int64(row) }

// Rel returns the underlying entity relation.
func (e *EntityInfo) Rel() *relation.Relation { return e.rel }

// BasicByAttr returns the basic property with the given display name.
func (e *EntityInfo) BasicByAttr(attr string) *BasicProperty { return e.basicByAttr[attr] }

// DerivedByAttr returns the derived property with the given display name.
func (e *EntityInfo) DerivedByAttr(attr string) *DerivedProperty { return e.derivedByAttr[attr] }

// buildAttrMaps indexes the (sorted) property lists by display name;
// the first property wins for duplicate names.
func (e *EntityInfo) buildAttrMaps() {
	e.basicByAttr = make(map[string]*BasicProperty, len(e.Basic))
	for _, p := range e.Basic {
		if _, dup := e.basicByAttr[p.Attr]; !dup {
			e.basicByAttr[p.Attr] = p
		}
	}
	e.derivedByAttr = make(map[string]*DerivedProperty, len(e.Derived))
	for _, p := range e.Derived {
		if _, dup := e.derivedByAttr[p.Attr]; !dup {
			e.derivedByAttr[p.Attr] = p
		}
	}
}

// entityBuild carries one entity relation through the parallel offline
// phase: the scaffolded EntityInfo plus one result slot per property
// task, so workers write disjoint slots and assembly replays them in
// enumeration order for deterministic output.
type entityBuild struct {
	info    *EntityInfo
	results []taskResult
}

// taskResult is the output of one property-discovery task: derived
// properties come out as descriptors, which deriveAll materializes.
type taskResult struct {
	basics   []*BasicProperty
	deriveds []*DerivedProperty
}

// Build constructs the abduction-ready database for db. Construction
// fans out over Config.Workers goroutines (the resident hash indexes,
// the dictionaries' normal indexes, and one task per candidate
// property); the assembled αDB is byte-for-byte independent of the
// worker count. The result is published as epoch 0 of the returned
// handle.
func Build(db *relation.Database, cfg Config) (*AlphaDB, error) {
	e, err := buildEpoch(db, cfg)
	if err != nil {
		return nil, err
	}
	return newAlphaDB(e), nil
}

// buildEpoch runs the offline phase and assembles the initial epoch:
// the resident hash indexes and the schema rule over them (checkSchema),
// then (beside the normal indexes) a scaffold per entity, one task per
// candidate property, assembly in enumeration order, and the derived
// properties in one materialization wave (deriveAll), which Decode runs
// too.
func buildEpoch(db *relation.Database, cfg Config) (*Epoch, error) {
	start := time.Now()
	switch cfg.MaxFactDepth {
	case 0:
		cfg.MaxFactDepth = 2
	case 1, 2:
	default:
		return nil, fmt.Errorf("adb: MaxFactDepth %d outside 0..2", cfg.MaxFactDepth)
	}
	workers := cfg.workers()
	a := &Epoch{
		DB:       db,
		Entities: make(map[string]*EntityInfo),
		Indexes:  residentIndexes(db, workers),
		cfg:      cfg,
		selCache: &SelCache{},
	}
	if err := checkSchema(db, a.Indexes); err != nil {
		return nil, fmt.Errorf("adb: %w", err)
	}

	// The normal indexes share no state with property discovery; build
	// them concurrently with everything below.
	normalsDone := make(chan struct{})
	go func() {
		buildNormalIndexes(db, workers)
		close(normalsDone)
	}()

	// Phase 1: scaffold every entity.
	var builds []*entityBuild
	for _, name := range db.EntityRelations() {
		info := a.scaffoldEntity(name)
		a.Entities[name] = info
		builds = append(builds, &entityBuild{info: info})
	}

	// Phase 2: enumerate property tasks (cheap, sequential), walk the
	// links they read, then fan the tasks out across the pool; each task
	// writes its own result slot.
	var tasks []func()
	adj := adjacencies{}
	for _, eb := range builds {
		tasks = append(tasks, a.planEntity(eb, adj)...)
	}
	a.walkLinks(adj, workers)
	index.RunBounded(len(tasks), workers, func(i int) { tasks[i]() })

	// Phase 3: assemble deterministically in entity order, replaying
	// task results in enumeration order, and materialize the derived
	// properties in one wave, registered in that order.
	var derived []*DerivedProperty
	for _, eb := range builds {
		for _, res := range eb.results {
			derived = append(derived, res.deriveds...)
		}
		a.finishEntity(eb)
	}
	a.deriveAll(derived, adj)
	a.names = a.nameTable()
	<-normalsDone
	a.BuildTime = time.Since(start)
	return a, nil
}

// residentIndexes builds the hash indexes every epoch holds from the
// start — the integer primary key of every relation that is not a fact,
// every foreign-key column of a fact relation, and every TEXT column by
// its codes (entity lookup's rows) — fanned over workers. Build and Load
// both run it before anything reads the set, so the per-row functions of
// the build and of every insert find their key lookups resident.
func residentIndexes(db *relation.Database, workers int) *index.IndexSet {
	var keys []index.ColumnKey
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		for _, col := range rel.Columns() {
			if col.Type == relation.String {
				keys = append(keys, index.ColumnKey{Relation: name, Column: col.Name})
			}
		}
		if db.Kind(name) != relation.KindUnknown {
			if intColumn(rel, rel.PrimaryKey) {
				keys = append(keys, index.ColumnKey{Relation: name, Column: rel.PrimaryKey})
			}
			continue
		}
		for _, fk := range rel.Foreign {
			if intColumn(rel, fk.Column) {
				keys = append(keys, index.ColumnKey{Relation: name, Column: fk.Column})
			}
		}
	}
	built := make([]*index.IntHash, len(keys))
	index.RunBounded(len(keys), workers, func(i int) {
		built[i] = index.BuildIntHash(db.Relation(keys[i].Relation), keys[i].Column)
	})
	set := index.NewIndexSet()
	for i, key := range keys {
		set.AdoptIntHash(key.Relation, key.Column, built[i])
	}
	return set
}

// buildNormalIndexes builds the normal index of every TEXT column's
// dictionary (relation.Dict.BuildNormalIndex), fanned over workers, so
// no entity lookup builds one: Build and Load run it beside property
// discovery.
func buildNormalIndexes(db *relation.Database, workers int) {
	var dicts []*relation.Dict
	for _, name := range db.RelationNames() {
		for _, col := range db.Relation(name).Columns() {
			if col.Type == relation.String {
				dicts = append(dicts, col.Dict())
			}
		}
	}
	index.RunBounded(len(dicts), workers, func(i int) { dicts[i].BuildNormalIndex() })
}

// EphemeralEntity builds a property-less EntityInfo for a non-entity
// relation with an integer primary key, over the resident primary-key
// index (a fact relation's key, never resident, is indexed for the
// call). It backs the dimension-fallback
// path of query discovery: when examples only match a dimension relation
// (all movie genres, IQ7 of the paper), the abduced query is the plain
// projection over that relation with no filters.
func (a *Epoch) EphemeralEntity(name string) *EntityInfo {
	rel := a.DB.Relation(name)
	if rel == nil || !intColumn(rel, rel.PrimaryKey) {
		return nil // name cannot serve; the caller tries the next match
	}
	return a.scaffoldEntity(name)
}

// CombinedDB returns the database the execution engine runs αDB-form
// SPJ queries (Q5 of the paper) against: the base relations, and each
// derived relation under its name as a view over its property's pair
// lists, whose rows an execution builds for
// itself. Resolving a name costs a map read: the table is built with
// the epoch (nameTable), and all executors over it share it.
func (a *Epoch) CombinedDB() *relation.Database { return a.names }

// nameTable builds the epoch's CombinedDB: a clone of the base
// database's name table, and one view a derived property, the entities
// in name order, whose rows come from the property's pair lists and the
// entities' keys in this epoch (viewRows).
func (a *Epoch) nameTable() *relation.Database {
	db := a.DB.CloneWith(nil)
	for _, name := range a.DB.EntityRelations() {
		info := a.Entities[name]
		for _, p := range info.Derived {
			db.AddView(&relation.View{Schema: p.schema, Point: "value", Rows: func(codes []int32) *relation.Relation {
				return p.viewRows(info, codes)
			}})
		}
	}
	return db
}

// scaffoldEntity builds the property-less lookup scaffold of a relation
// with an INTEGER primary key, over its key's index.
func (a *Epoch) scaffoldEntity(name string) *EntityInfo {
	info := newEntityInfo(a.DB.Relation(name))
	info.pkIndex = a.readHash(info.rel, info.PK)
	return info
}

// newEntityInfo is scaffoldEntity without the primary-key index: what a
// snapshot load reads before its trailer passes, when nothing may be
// derived yet.
func newEntityInfo(rel *relation.Relation) *EntityInfo {
	return &EntityInfo{Relation: rel.Name, PK: rel.PrimaryKey, NumRows: rel.NumRows(), rel: rel}
}

// checkSchema is the schema rule Build and Load hold a database to,
// over the resident indexes (residentIndexes) built for it:
//   - the database declares an entity relation;
//   - every foreign key is an INTEGER column referencing an INTEGER
//     column of an existing relation: the build, a load and every insert
//     read the key of an entity or a dimension through it as an integer;
//   - every entity and every dimension relation has an INTEGER primary
//     key holding each row's key exactly once, none NULL: the αDB reads
//     a row by its key's first row (IntHash.First), and an insert refuses
//     a row that would break it (insertEntity). The key's resident index
//     holds each non-NULL key once, so it holds as many keys as the
//     relation has rows exactly when no key is NULL or repeated.
//
// A key declared on a fact relation names a column and nothing more: no
// index holds it, nothing checks it, and only the dimension fallback
// reads rows by it (EphemeralEntity, the first row a key). The rule
// builds nothing of its own; it looks for a NULL only once a key's index
// counts short.
func checkSchema(db *relation.Database, idx *index.IndexSet) error {
	if len(db.EntityRelations()) == 0 {
		return fmt.Errorf("database %q declares no entity relations", db.Name)
	}
	for _, name := range db.RelationNames() {
		rel := db.Relation(name)
		for _, fk := range rel.Foreign {
			if !intColumn(rel, fk.Column) || !intColumn(db.Relation(fk.RefRelation), fk.RefColumn) {
				return fmt.Errorf("relation %q: foreign key %q into %s.%s is not an INTEGER column referencing an INTEGER column",
					name, fk.Column, fk.RefRelation, fk.RefColumn)
			}
		}
		if db.Kind(name) == relation.KindUnknown {
			continue
		}
		if !intColumn(rel, rel.PrimaryKey) {
			return fmt.Errorf("relation %q: primary key %q is not an INTEGER column", name, rel.PrimaryKey)
		}
		if idx.ResidentIntHash(rel, rel.PrimaryKey).NumKeys() != rel.NumRows() {
			return keyError(name, rel.PrimaryKey, slices.Contains(rel.Column(rel.PrimaryKey).RawNulls(), true))
		}
	}
	return nil
}

// keyError is the error for a primary key that holds a NULL (null) or a
// repeated key, the same from the schema rule and from an insert.
func keyError(rel, pk string, null bool) error {
	if null {
		return fmt.Errorf("relation %q: primary key %q: a NULL key", rel, pk)
	}
	return fmt.Errorf("relation %q: primary key %q: a repeated key", rel, pk)
}

// planEntity enumerates the property-discovery tasks of one entity in
// the same order the sequential builder visited them, reserving one
// result slot per task, and registers in adj the link of every
// association they walk. Tasks only read base relations, the resident
// index set and the walked adjacencies, so they run freely in parallel.
func (a *Epoch) planEntity(eb *entityBuild, adj adjacencies) []func() {
	info := eb.info
	name := info.Relation
	rel := info.rel

	fkCols := make(map[string]relation.ForeignKey)
	for _, fk := range rel.Foreign {
		fkCols[fk.Column] = fk
	}

	var tasks []func()
	addTask := func(run func(res *taskResult)) {
		idx := len(eb.results)
		eb.results = append(eb.results, taskResult{})
		tasks = append(tasks, func() { run(&eb.results[idx]) })
	}
	addBasic := func(build func() *BasicProperty) {
		addTask(func(res *taskResult) {
			if p := build(); p != nil {
				res.basics = append(res.basics, p)
			}
		})
	}

	// 1. Direct attributes of the entity relation.
	for _, col := range rel.Columns() {
		if col.Name == rel.PrimaryKey {
			continue
		}
		if fk, isFK := fkCols[col.Name]; isFK {
			// 2. FK-dimension attribute (person.country_id → country.name).
			if a.DB.Kind(fk.RefRelation) == relation.KindProperty {
				fk := fk
				addBasic(func() *BasicProperty { return a.buildFKDimProperty(info, fk) })
			}
			continue
		}
		col := col
		addBasic(func() *BasicProperty { return a.buildDirectProperty(info, col) })
	}

	// 3. Attribute tables: side relations with a single foreign key to
	// this entity plus value columns, like research(aid, interest) in
	// Fig 1 of the paper.
	for _, sideName := range a.DB.RelationNames() {
		side := a.DB.Relation(sideName)
		if a.DB.Kind(sideName) != relation.KindUnknown || len(side.Foreign) != 1 {
			continue
		}
		fk := side.Foreign[0]
		if fk.RefRelation != name {
			continue
		}
		for _, col := range side.Columns() {
			if col.Name == fk.Column || col.Type != relation.String {
				continue
			}
			sideName, fk, col := sideName, fk, col
			addBasic(func() *BasicProperty { return a.buildAttrTableProperty(info, sideName, fk, col) })
		}
	}

	// 4. Fact-dimension attributes and derived properties via fact
	// tables referencing this entity.
	for _, factName := range a.DB.RelationNames() {
		fact := a.DB.Relation(factName)
		if a.DB.Kind(factName) != relation.KindUnknown || len(fact.Foreign) < 2 {
			continue
		}
		for _, fkToMe := range fact.Foreign {
			if fkToMe.RefRelation != name {
				continue
			}
			for _, other := range fact.Foreign {
				if other == fkToMe {
					continue
				}
				factName, fkToMe, other := factName, fkToMe, other
				switch a.DB.Kind(other.RefRelation) {
				case relation.KindProperty:
					addBasic(func() *BasicProperty { return a.buildFactDimProperty(info, factName, fkToMe, other) })
				case relation.KindEntity:
					via := a.DB.Relation(other.RefRelation)
					j := adj.need(link{name, factName, fkToMe.Column, other.Column, via.Name, via.PrimaryKey})
					addTask(func(res *taskResult) {
						res.basics, res.deriveds = a.buildDerivedProperties(info, factName, fkToMe, other, j)
					})
				}
			}
		}
	}
	return tasks
}

// finishEntity assembles one entity's task results in enumeration order,
// sorts the property lists, and builds the name→property maps.
func (a *Epoch) finishEntity(eb *entityBuild) {
	info := eb.info
	for _, res := range eb.results {
		info.Basic = append(info.Basic, res.basics...)
		info.Derived = append(info.Derived, res.deriveds...)
	}
	sort.SliceStable(info.Basic, func(i, j int) bool { return info.Basic[i].Attr < info.Basic[j].Attr })
	sort.SliceStable(info.Derived, func(i, j int) bool { return info.Derived[i].Attr < info.Derived[j].Attr })
	info.buildAttrMaps()
}

// The distinct-count guards of keepCategorical: a categorical column
// with more distinct values than maxCatDistinct, or (over at least
// ratioMinEntities entities) more than maxCatRatio of the entity count,
// is an identifier or a name, not a property.
const (
	maxCatDistinct   = 1000
	maxCatRatio      = 0.5
	ratioMinEntities = 50
)

// keepCategorical applies the distinct-count guards that exclude
// identifier-like text columns from property discovery. The ratio guard
// only applies to relations large enough for the ratio to be meaningful
// (small dimension-like tables legitimately have high distinct ratios).
func keepCategorical(distinct, entities int) bool {
	return distinct > 0 && distinct <= maxCatDistinct &&
		(entities < ratioMinEntities || float64(distinct)/float64(entities) <= maxCatRatio)
}

// source is what the per-row functions of a property read: the cold
// build's database and index set (Epoch), or an insert batch's view of
// them (epochBuilder), which sees the rows the batch appended.
type source interface {
	viewRel(name string) *relation.Relation
	readHash(rel *relation.Relation, col string) *index.IntHash
	isEntity(name string) bool
}

func (a *Epoch) viewRel(name string) *relation.Relation { return a.DB.Relation(name) }

// readHash serves the build's point lookups from the resident set
// (residentIndexes); a key the set lacks — a foreign key that names a
// column other than its relation's primary key — is indexed for the
// caller alone.
func (a *Epoch) readHash(rel *relation.Relation, col string) *index.IntHash {
	if h := a.Indexes.ResidentIntHash(rel, col); h != nil {
		return h
	}
	return index.BuildIntHash(rel, col)
}

func (a *Epoch) isEntity(name string) bool { return a.DB.Kind(name) == relation.KindEntity }

// pairReader is a categorical basic property's one derivation, and its
// access path resolved against one epoch's relations and indexes: pair
// maps one row of its source relation — the entity relation for Direct
// and FKDim paths, the fact or side table for FactDim and AttrTable — to
// the entity row it describes and the value code it contributes, and
// appendCodes reads that map in reverse, from an entity row to its
// codes. The cold build and the snapshot load fold pair over every
// source row (foldCategorical) — an entity association's over its link's
// adjacency instead —, an insert applies it to the rows it adds, and the
// property keeps the reader for appendCodes.
type pairReader struct {
	src *relation.Relation
	// entCol names the entity in a fact or side row, resolved through pk;
	// nil when the source row is the entity row. ids is the entity's key
	// column and byEntity the source's rows by entCol: the way back.
	entCol, ids  *relation.Column
	pk, byEntity *index.IntHash
	// col holds the value (Direct, AttrTable) or the key of the
	// dimension row holding it (FKDim, FactDim), resolved through dimPK
	// to that row's dimVal cell.
	col, dimVal *relation.Column
	dimPK       *index.IntHash
	dict        *relation.Dict // the dictionary the codes index into
	// assoc marks an entity-association property: it lists an
	// associated entity once, however many fact rows link the pair.
	assoc bool
	links pairCheck
}

func (p *BasicProperty) pairs(s source) pairReader {
	acc := p.Access
	r := pairReader{src: s.viewRel(p.Entity)}
	if acc.Type == FactDim || acc.Type == AttrTable {
		ent := r.src
		r.src = s.viewRel(acc.Fact)
		r.entCol, r.ids = r.src.Column(acc.FactEntityCol), ent.Column(ent.PrimaryKey)
		r.pk, r.byEntity = s.readHash(ent, ent.PrimaryKey), s.readHash(r.src, acc.FactEntityCol)
	}
	if acc.Type == FactDim {
		r.col, r.assoc = r.src.Column(acc.FactDimCol), s.isEntity(acc.Dim)
		if r.assoc {
			r.links = newPairCheck(s, r.src, acc.FactEntityCol, acc.FactDimCol)
		}
	} else {
		r.col = r.src.Column(acc.Column)
	}
	r.dict = r.col.Dict()
	if acc.Type == FKDim || acc.Type == FactDim {
		dim := s.viewRel(acc.Dim)
		r.dimPK, r.dimVal = s.readHash(dim, acc.DimPK), dim.Column(acc.DimValueCol)
		r.dict = r.dimVal.Dict()
	}
	return r
}

// pair returns the entity row source row sr describes and the code it
// contributes; ok is false when the row contributes nothing: a NULL or
// dangling key, a NULL value, or a pair an earlier row linked.
func (r *pairReader) pair(sr int) (eRow int, code int32, ok bool) {
	eRow = sr
	if r.entCol != nil {
		if r.entCol.IsNull(sr) {
			return 0, 0, false
		}
		if eRow, ok = r.pk.First(r.entCol.Int64(sr)); !ok {
			return 0, 0, false
		}
	}
	if code, _, ok = r.value(sr); !ok || r.assoc && !r.links.first(sr) {
		return 0, 0, false
	}
	return eRow, code, true
}

// value returns the code source row sr contributes and, on a path
// through a dimension, the dimension row holding it; ok is false for a
// NULL value or a dangling key.
func (r *pairReader) value(sr int) (code int32, d int, ok bool) {
	if r.col.IsNull(sr) {
		return 0, 0, false
	}
	if r.dimVal == nil {
		return r.col.Code(sr), sr, true
	}
	if d, ok = r.dimPK.First(r.col.Int64(sr)); !ok || r.dimVal.IsNull(d) {
		return 0, 0, false
	}
	return r.dimVal.Code(d), d, true
}

// appendCodes appends to dst the codes the fold of pair gives entity row
// eRow, in source-row order with repeats: the entity row's own pair, or
// the pairs of the source rows byEntity lists under the entity's key —
// ascending, since rows are only appended. It allocates nothing once
// dst has room.
func (r *pairReader) appendCodes(dst []int32, eRow int) []int32 {
	if r.entCol == nil {
		if code, _, ok := r.value(eRow); ok {
			dst = append(dst, code)
		}
		return dst
	}
	if r.ids.IsNull(eRow) {
		return dst
	}
	start := len(dst)
	rows := r.byEntity.Rows(r.ids.Int64(eRow))
	room := rows.Len()
	if r.assoc {
		room *= 3 // firstVia works past the codes
	}
	dst = slices.Grow(dst, room)
	for sr := range rows.All() {
		switch code, d, ok := r.value(int(sr)); {
		case !ok:
		case r.assoc:
			dst = append(dst, int32(d)) // a via row, coded by firstVia
		default:
			dst = append(dst, code)
		}
	}
	if r.assoc {
		dst = r.firstVia(dst, start)
	}
	return dst
}

// sourceRows returns how many source rows appendCodes reads for entity
// row eRow: one for the entity row itself, or the rows byEntity lists
// under its key.
func (r *pairReader) sourceRows(eRow int) int {
	if r.entCol == nil {
		return 1
	}
	if r.ids.IsNull(eRow) {
		return 0
	}
	return r.byEntity.Rows(r.ids.Int64(eRow)).Len()
}

// firstVia keeps the first occurrence of each via row in dst[start:] and
// turns it into its code: an entity association lists an associated
// entity once however many fact rows link the pair, as pairCheck makes
// the fold do. Two via rows can share a display value (name twins), so
// the test is on rows, not codes. Past dst's end it sorts a copy of the
// rows and lists the rows that repeat, each with a flag its first
// occurrence sets: k log k for k rows, and no allocation once dst has
// room.
func (r *pairReader) firstVia(dst []int32, start int) []int32 {
	k := len(dst) - start
	if k > 1 {
		dst = append(dst, dst[start:start+k]...)
		sorted := dst[start+k:]
		slices.Sort(sorted)
		for i := 1; i < k; i++ {
			if d := sorted[i]; d == sorted[i-1] && (len(dst) == start+2*k || dst[len(dst)-1] != d) {
				dst = append(dst, d)
			}
		}
		if u := len(dst) - start - 2*k; u > 0 {
			dst = append(dst, make([]int32, u)...)
			rows, reps, seen := dst[start:start+k], dst[start+2*k:start+2*k+u], dst[start+2*k+u:]
			for i, d := range rows {
				if j, ok := slices.BinarySearch(reps, d); ok {
					if seen[j] != 0 {
						rows[i] = -1 // a later link of the pair
					}
					seen[j] = 1
				}
			}
		}
	}
	n := start
	for _, d := range dst[start : start+k] {
		if d >= 0 {
			dst[n] = r.dimVal.Code(int(d))
			n++
		}
	}
	return dst[:n]
}

// pairCheck tells whether a fact row is the first to link the pair of
// ids it holds in two columns: a pair of entities associates once,
// however many fact rows link it. It reads one hash index, over
// whichever of the two columns comes first in the fact, so the checks
// of both of the fact's entities share it. It scans the earlier rows of
// the row's first id, so it serves the insert path, one new row at a
// time; Build and Load take the distinct pairs from the link's
// adjacency (adjacencyOf) instead.
type pairCheck struct {
	idx    *index.IntHash
	ac, bc *relation.Column
}

func newPairCheck(s source, fact *relation.Relation, a, b string) pairCheck {
	if fact.ColumnIndex(b) < fact.ColumnIndex(a) {
		a, b = b, a
	}
	return pairCheck{s.readHash(fact, a), fact.Column(a), fact.Column(b)}
}

// first reports whether no row of the fact before fr links fr's pair.
func (c pairCheck) first(fr int) bool {
	id := c.bc.Int64(fr)
	for r := range c.idx.Rows(c.ac.Int64(fr)).All() {
		if int(r) >= fr {
			return true
		}
		if !c.bc.IsNull(int(r)) && c.bc.Int64(int(r)) == id {
			return false
		}
	}
	return true
}

// buildCategorical builds info's categorical property attr, reached by
// acc (multi-valued through a fact or side table): foldCategorical, then
// the distinct-count guards, which an entity-association property
// bypasses: its domain is the associated entity relation itself. adj is
// the adjacency of an entity association's link, nil for any other
// path.
func (a *Epoch) buildCategorical(info *EntityInfo, attr string, acc AccessPath, adj *adjacency) *BasicProperty {
	p := &BasicProperty{
		Entity: info.Relation, Attr: attr, Kind: Categorical, Access: acc,
		MultiValued: acc.Type == FactDim || acc.Type == AttrTable,
		numEntities: info.NumRows,
	}
	assoc := p.foldCategorical(a, adj)
	if p.numValues == 0 || !assoc && !keepCategorical(p.numValues, p.numEntities) {
		return nil
	}
	p.memo = newRowSetMemo(a.selCache)
	return p
}

// foldCategorical derives a categorical property's statistics from the
// facts: it folds the path's pairReader over its source relation, groups
// the pairs by entity row and computes the per-code statistics from
// them, and keeps the reader, which answers an entity row's codes from
// then on — the one derivation, shared by the cold build and the
// snapshot load. An entity association reads its link's adjacency adj
// instead, which lists each associated via row once: each maps to its
// display value's code, a NULL display value to none. It reports
// whether the property is an entity association.
func (p *BasicProperty) foldCategorical(s source, adj *adjacency) (assoc bool) {
	r := p.pairs(s)
	p.dict, p.path = r.dict, r
	if r.assoc {
		offs := make([]uint32, len(adj.offs))
		codes := make([]int32, 0, len(adj.vias))
		for e := range len(offs) - 1 {
			for _, v := range adj.of(e) {
				if !r.dimVal.IsNull(int(v)) {
					codes = append(codes, r.dimVal.Code(int(v)))
				}
			}
			offs[e+1] = uint32(len(codes))
		}
		p.buildCatStats(offs, codes)
		return true
	}
	n := r.src.NumRows()
	rows, codes := make([]uint32, 0, n), make([]int32, 0, n)
	for sr := range n {
		if row, code, ok := r.pair(sr); ok {
			rows, codes = append(rows, uint32(row)), append(codes, code)
		}
	}
	p.buildCatStats(byRow(rows, codes, p.numEntities))
	return r.assoc
}

// byRow groups (entity row, code) pairs by row with a stable counting
// sort — a row's codes keep their source order, repeats included — at
// exact size: row r's codes are flat[offs[r]:offs[r+1]].
func byRow(rows []uint32, codes []int32, numRows int) (offs []uint32, flat []int32) {
	offs = make([]uint32, numRows+1)
	for _, r := range rows {
		offs[r+1]++
	}
	for i := 1; i <= numRows; i++ {
		offs[i] += offs[i-1]
	}
	flat = make([]int32, len(codes))
	next := slices.Clone(offs[:numRows])
	for i, r := range rows {
		flat[next[r]] = codes[i]
		next[r]++
	}
	return offs, flat
}

// buildCatStats derives catRows from the pairs grouped by row (byRow) —
// the one constructor of a categorical property's posting lists. It is
// a counting sort by code that lists each (entity, code) pair once,
// ascending by row, into a base laid out at its exact size over the
// entity rows (index.PostingsBuilder: a value more than one entity in
// 32 holds is a bitmap). The grouping is dropped after it.
func (p *BasicProperty) buildCatStats(offs []uint32, flat []int32) {
	codes := p.dict.Len()
	// seen[c] is one past the last row counted for code c: rows ascend,
	// so a code repeated within a row is the only way to meet it again.
	seen := make([]int, codes)
	pOffs := make([]uint32, codes+1)
	for row := range len(offs) - 1 {
		for _, c := range flat[offs[row]:offs[row+1]] {
			if seen[c] != row+1 {
				seen[c] = row + 1
				pOffs[c+1]++
			}
		}
	}
	for c := 0; c < codes; c++ {
		if pOffs[c+1] > 0 {
			p.numValues++
		}
	}
	b := index.NewPostingsBuilder(pOffs, len(offs)-1)
	clear(seen)
	for row := range len(offs) - 1 {
		for _, c := range flat[offs[row]:offs[row+1]] {
			if seen[c] != row+1 {
				seen[c] = row + 1
				b.Add(int(c), uint32(row))
			}
		}
	}
	p.catRows = b.Postings()
}

// buildNumStats points a numeric property at its column and derives
// the order from it: the rows that hold a value (numCell), sorted by
// value — the one constructor of the order, shared by the build and the
// snapshot load. It sorts (value, row) pairs in a scratch slice and
// keeps the rows: a sort that compares through column reads costs about
// twice as much. Ties land in any order.
func (p *BasicProperty) buildNumStats(col *relation.Column) {
	type cell struct {
		v   float64
		row uint32
	}
	cells := make([]cell, 0, col.Len())
	for row := range col.Len() {
		if v, ok := numCell(col, row); ok {
			cells = append(cells, cell{v, uint32(row)})
		}
	}
	slices.SortFunc(cells, func(a, b cell) int { return cmp.Compare(a.v, b.v) })
	rows := make([]uint32, len(cells))
	for i, c := range cells {
		rows[i] = c.row
	}
	p.col, p.order = col, relation.ChunkedOf(rows)
}

// buildDirectProperty creates a basic property from a direct entity
// column.
func (a *Epoch) buildDirectProperty(info *EntityInfo, col *relation.Column) *BasicProperty {
	acc := AccessPath{Type: Direct, Column: col.Name}
	if col.Type == relation.String {
		return a.buildCategorical(info, col.Name, acc, nil)
	}
	p := &BasicProperty{Entity: info.Relation, Attr: col.Name, Kind: Numeric, Access: acc, numEntities: info.NumRows}
	p.buildNumStats(col)
	if p.order.Len() == 0 {
		return nil
	}
	p.memo = newRowSetMemo(a.selCache)
	return p
}

// displayColumn names the display column of a dimension or an entity
// relation, its first TEXT column, or "" when it has none.
func displayColumn(rel *relation.Relation) string {
	for _, col := range rel.Columns() {
		if col.Type == relation.String {
			return col.Name
		}
	}
	return ""
}

// buildFKDimProperty creates a basic property reached through the
// entity's own foreign key into a dimension relation.
func (a *Epoch) buildFKDimProperty(info *EntityInfo, fk relation.ForeignKey) *BasicProperty {
	dim := a.DB.Relation(fk.RefRelation)
	valCol := displayColumn(dim)
	if valCol == "" {
		return nil
	}
	return a.buildCategorical(info, dim.Name, AccessPath{
		Type: FKDim, Column: fk.Column,
		Dim: dim.Name, DimPK: fk.RefColumn, DimValueCol: valCol,
	}, nil)
}

// buildAttrTableProperty creates a (multi-valued) basic property from an
// attribute table: a side relation with a single FK to the entity and a
// value column (research(aid, interest) in Fig 1 of the paper).
func (a *Epoch) buildAttrTableProperty(info *EntityInfo, sideName string, fk relation.ForeignKey, col *relation.Column) *BasicProperty {
	return a.buildCategorical(info, col.Name, AccessPath{
		Type: AttrTable,
		Fact: sideName, FactEntityCol: fk.Column,
		Column: col.Name,
	}, nil)
}

// buildFactDimProperty creates a (multi-valued) basic property reached
// through a fact table into a dimension relation.
func (a *Epoch) buildFactDimProperty(info *EntityInfo, factName string, fkToMe, fkToDim relation.ForeignKey) *BasicProperty {
	dim := a.DB.Relation(fkToDim.RefRelation)
	valCol := displayColumn(dim)
	if valCol == "" {
		return nil
	}
	return a.buildCategorical(info, dim.Name, AccessPath{
		Type: FactDim,
		Fact: factName, FactEntityCol: fkToMe.Column, FactDimCol: fkToDim.Column,
		Dim: dim.Name, DimPK: fkToDim.RefColumn, DimValueCol: valCol,
	}, nil)
}
