package adb

import (
	"fmt"
	"slices"

	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/trace"
)

// This file implements one of the paper's §9 future directions —
// efficient αDB maintenance for dynamic datasets — as a copy-on-write
// epoch writer. Instead of rebuilding the αDB (or mutating it under a
// global lock), an insert batch builds the next epoch: it clones the
// headers of the relations, per-property statistics, and index shards
// the batch touches, copies only the chunks and tails it writes into
// (index.Chunked, index.IntHash, index.Jagged, index.Postings),
// structurally shares everything else with the base epoch, applies the
// per-row delta logic to the private clones, and publishes the result
// with one atomic pointer swap (AlphaDB.publish). Readers pinned to older epochs are never stalled
// and never observe a half-applied batch. Only inserts are supported
// (append-only maintenance), which covers the common catalog-growth
// workload; deletions still require a rebuild.
//
// Writers coordinate per relation: each insert locks only the write
// domain of the relations it touches (AlphaDB.lockDomains), so inserts
// into disjoint relations build their epochs in parallel and the
// publish combiner merges them into one chain.

// epochBuilder accumulates one writer's copy-on-write changes against
// a base epoch. Privatization is lazy and per-structure: the first
// touch of a relation, property, or index shard clones its header;
// the first write into a chunk of a chunked vector copies that chunk
// (stamped with gen, so later touches in the same batch mutate it in
// place); a layered structure — a hash or numeric index, a categorical
// property's code lists and posting lists — copies its tail when the
// property or shard is cloned and writes into that. Lists shared with
// the base are only ever appended past the base's lengths: an entity
// row gaining a code is copied into the tail first, and a posting list
// keeps its new rows in the tail beside its base run.
type epochBuilder struct {
	base *Epoch
	idx  *index.IndexDelta
	// gen is this writer's generation: it stamps every chunk and table
	// the builder copies, and tallies the bytes copied (chunks, index
	// tails and folds, updated columns) — what the epoch this publish
	// retires keeps alive on its own.
	gen *index.Gen

	baseRels    map[string]*relation.Relation // privatized base relations
	derivedRels map[string]*relation.Relation // privatized derived relations
	entities    map[string]*EntityInfo        // privatized entity infos
	isPriv      map[any]bool                  // clones created by this builder
	rowCounts   map[string]int                // updated base-relation row counts

	// logRows, when set (a publish hook is attached), makes the builder
	// record every successfully applied row in apply order — the epoch
	// delta a write-ahead log record carries. Apply order matters:
	// replaying the rows through the same insert path reproduces the
	// epoch byte-identically, including a fact row that referenced an
	// entity inserted later in the batch.
	logRows bool
	applied []AppliedRow
}

// AppliedRow is one row a publish applied: the target relation and the
// exact values appended (the unit of the WAL's epoch-delta records).
type AppliedRow struct {
	Rel  string
	Vals []relation.Value
}

// noteApplied records a successfully applied row for the publish hook.
// Values are copied: the caller's slice may be reused.
func (eb *epochBuilder) noteApplied(rel string, vals []relation.Value) {
	if !eb.logRows {
		return
	}
	eb.applied = append(eb.applied, AppliedRow{
		Rel:  rel,
		Vals: append([]relation.Value(nil), vals...),
	})
}

func newEpochBuilder(base *Epoch) *epochBuilder {
	gen := new(index.Gen)
	return &epochBuilder{
		base:        base,
		idx:         index.NewIndexDelta(base.Indexes, gen),
		gen:         gen,
		baseRels:    make(map[string]*relation.Relation),
		derivedRels: make(map[string]*relation.Relation),
		entities:    make(map[string]*EntityInfo),
		isPriv:      make(map[any]bool),
		rowCounts:   make(map[string]int),
	}
}

// dirty reports whether the builder changed anything worth publishing.
func (eb *epochBuilder) dirty() bool {
	return len(eb.baseRels) > 0 || len(eb.derivedRels) > 0 || len(eb.entities) > 0
}

// finalize rebuilds the attribute maps of privatized entities (their
// clones still index the base's property pointers) before publish.
func (eb *epochBuilder) finalize() {
	for _, info := range eb.entities {
		info.buildAttrMaps()
	}
}

// baseRel privatizes a base relation for appends.
func (eb *epochBuilder) baseRel(name string) *relation.Relation {
	if r := eb.baseRels[name]; r != nil {
		return r
	}
	r := eb.base.DB.Relation(name)
	if r == nil {
		return nil
	}
	r = r.CloneForWrite()
	eb.baseRels[name] = r
	return r
}

// derivedRel privatizes a derived relation; bumps overwrite existing
// cells of the count column, which land in the clone's patch (see
// relation.Column.CloneForUpdate) — the storage itself stays shared.
func (eb *epochBuilder) derivedRel(name string) *relation.Relation {
	if r := eb.derivedRels[name]; r != nil {
		return r
	}
	r := eb.base.DerivedDB.Relation(name)
	if r == nil {
		return nil
	}
	r = r.CloneForWrite()
	eb.gen.Copied += r.UpdateColumn("count")
	eb.derivedRels[name] = r
	return r
}

// viewRel returns the batch's view of a base relation: the private
// clone when this writer already touched it, the base's otherwise.
func (eb *epochBuilder) viewRel(name string) *relation.Relation {
	if r := eb.baseRels[name]; r != nil {
		return r
	}
	return eb.base.DB.Relation(name)
}

// entity privatizes an EntityInfo: a shallow clone with its own
// property slices, so the builder can swap in property clones.
func (eb *epochBuilder) entity(name string) *EntityInfo {
	if info := eb.entities[name]; info != nil {
		return info
	}
	old := eb.base.Entities[name]
	if old == nil {
		return nil
	}
	q := *old
	q.Basic = append([]*BasicProperty(nil), old.Basic...)
	q.Derived = append([]*DerivedProperty(nil), old.Derived...)
	eb.entities[name] = &q
	return &q
}

// viewEntity returns the batch's view of an entity (private clone or
// base), for lookups that must see rows inserted earlier in the batch.
func (eb *epochBuilder) viewEntity(name string) *EntityInfo {
	if info := eb.entities[name]; info != nil {
		return info
	}
	return eb.base.Entities[name]
}

// privBasic privatizes the i-th basic property of a (privatized)
// entity; idempotent within the batch.
func (eb *epochBuilder) privBasic(info *EntityInfo, i int) *BasicProperty {
	p := info.Basic[i]
	if eb.isPriv[p] {
		return p
	}
	q := p.cloneForWrite(eb.gen)
	eb.isPriv[q] = true
	info.Basic[i] = q
	return q
}

// privDerived privatizes the i-th derived property of a (privatized)
// entity; idempotent within the batch.
func (eb *epochBuilder) privDerived(info *EntityInfo, i int) *DerivedProperty {
	p := info.Derived[i]
	if eb.isPriv[p] {
		return p
	}
	q := p.cloneForWrite()
	eb.isPriv[q] = true
	info.Derived[i] = q
	return q
}

// InsertEntity appends a row to an entity relation and publishes the
// next epoch with that entity's statistics maintained (the §9
// dynamic-dataset extension). Safe to call concurrently with discovery
// (readers are wait-free on their pinned epochs) and with inserts into
// other relations (per-relation writer locks).
func (a *AlphaDB) InsertEntity(entityRel string, vals ...relation.Value) error {
	unlock := a.lockDomains([]string{entityRel})
	defer unlock()
	eb := newEpochBuilder(a.Snapshot())
	eb.logRows = a.publishHook != nil
	err := eb.insertEntity(entityRel, vals)
	a.publish(eb)
	return err
}

// InsertFact appends a row to a fact relation and publishes the next
// epoch with the affected derived relations and statistics maintained.
// The fact relation must have been present at Build time. Safe to call
// concurrently with discovery and with inserts into disjoint relations.
func (a *AlphaDB) InsertFact(factRel string, vals ...relation.Value) error {
	unlock := a.lockDomains([]string{factRel})
	defer unlock()
	eb := newEpochBuilder(a.Snapshot())
	eb.logRows = a.publishHook != nil
	err := eb.insertFact(factRel, vals)
	a.publish(eb)
	return err
}

// InsertOp describes one row of an InsertBatch: the target relation
// (entity or fact, dispatched automatically) and its values.
type InsertOp struct {
	Rel  string
	Vals []relation.Value
}

// InsertBatch appends many rows — entity and fact rows may be mixed —
// into one copy-on-write epoch, amortizing the structure clones and
// the publish over the whole batch: the touched relations' statistics
// are cloned once per batch, not once per row, and readers observe the
// batch atomically (all rows or, before the publish, none). Rows apply
// in order; on the first failure the batch stops, already-applied rows
// are still published (append-only maintenance has no rollback), and
// the error reports the failing row's index.
func (a *AlphaDB) InsertBatch(ops []InsertOp) error {
	return a.InsertBatchT(ops, trace.Span{})
}

// InsertBatchT is InsertBatch with trace attribution: the per-relation
// writer-lock acquisition is a publish_wait span (the time this batch
// spent blocked behind other writers of its domains), the copy-on-write
// apply loop is an apply span counting its rows, and the publish step
// (with its WAL append) nests under publishT. The zero Span makes it
// exactly InsertBatch.
func (a *AlphaDB) InsertBatchT(ops []InsertOp, sp trace.Span) error {
	if len(ops) == 0 {
		return nil
	}
	rels := make([]string, len(ops))
	for i, op := range ops {
		rels[i] = op.Rel
	}
	ws := sp.Child(trace.PhasePublishWait, "")
	unlock := a.lockDomains(rels)
	ws.End()
	defer unlock()
	eb := newEpochBuilder(a.Snapshot())
	eb.logRows = a.publishHook != nil
	as := sp.Child(trace.PhaseApply, "")
	var firstErr error
	for i, op := range ops {
		var err error
		if eb.base.Entities[op.Rel] != nil {
			err = eb.insertEntity(op.Rel, op.Vals)
		} else {
			err = eb.insertFact(op.Rel, op.Vals)
		}
		if err != nil {
			firstErr = fmt.Errorf("adb: batch insert %d into %q: %w", i, op.Rel, err)
			break
		}
		as.Add(trace.CounterRows, 1)
	}
	as.End()
	a.publishT(eb, sp)
	return firstErr
}

// insertEntity applies one entity-row insert to the builder's clones:
// every property of the entity shifts (the selectivity denominator |R|
// grew), so all of them privatize — but only of this entity; other
// relations' properties keep their identities and their cached row
// sets.
func (eb *epochBuilder) insertEntity(entityRel string, vals []relation.Value) error {
	if eb.base.Entities[entityRel] == nil {
		return fmt.Errorf("adb: %q is not an entity relation", entityRel)
	}
	// Validate against the batch's view BEFORE privatizing anything, so
	// a rejected row (duplicate or NULL key, arity or type mismatch)
	// leaves the builder clean: no ragged clone, no data-identical
	// epoch published for it.
	view := eb.viewRel(entityRel)
	pkIdx := view.ColumnIndex(view.PrimaryKey)
	if pkIdx < 0 || pkIdx >= len(vals) {
		return fmt.Errorf("adb: insert into %q lacks a primary key value", entityRel)
	}
	if err := view.ValidateRow(vals); err != nil {
		return err
	}
	pk := vals[pkIdx]
	if pk.IsNull() {
		return fmt.Errorf("adb: NULL primary key")
	}
	if _, dup := eb.viewEntity(entityRel).RowByID(pk.Int()); dup {
		return fmt.Errorf("adb: duplicate primary key %v in %q", pk, entityRel)
	}
	info := eb.entity(entityRel)
	rel := eb.baseRel(entityRel)
	info.rel = rel
	if err := rel.Append(vals...); err != nil {
		return err
	}
	row := rel.NumRows() - 1
	info.NumRows = rel.NumRows()
	eb.rowCounts[entityRel] = rel.NumRows()
	// Privatize and maintain every materialized index of this relation
	// (including the primary-key index) for the new row.
	eb.idx.NoteAppend(rel, row)
	info.pkIndex = eb.idx.ReadIntHash(rel, rel.PrimaryKey)

	// Update basic-property statistics for the new row.
	for i := range info.Basic {
		p := eb.privBasic(info, i)
		p.numEntities = info.NumRows
		switch p.Access.Type {
		case Direct:
			eb.insertDirectValue(p, rel, row)
		case FKDim:
			eb.insertFKDimValue(p, rel, row)
		default:
			// FactDim/AttrTable properties gain values only via fact
			// inserts; the new entity simply has none yet.
			if p.Kind == Categorical {
				p.valsByRow.Append()
			}
		}
	}
	for i := range info.Derived {
		p := eb.privDerived(info, i)
		p.numEntities = info.NumRows
	}

	eb.postText(rel, row)
	eb.noteApplied(entityRel, vals)
	return nil
}

// postText posts the TEXT cells of a row just appended to rel to the
// shared inverted index, as BuildInvertedParallel indexes every TEXT
// column of every relation. The postings become visible to epoch-pinned
// readers only once the publish raises the relation's row count past
// the row.
func (eb *epochBuilder) postText(rel *relation.Relation, row int) {
	for _, col := range rel.Columns() {
		if col.Type == relation.String && !col.IsNull(row) {
			eb.base.Inverted.Insert(col.Str(row), index.Posting{Relation: rel.Name, Column: col.Name, Row: row})
		}
	}
}

func (eb *epochBuilder) insertDirectValue(p *BasicProperty, rel *relation.Relation, row int) {
	col := rel.Column(p.Access.Column)
	if p.Kind == Numeric {
		p.appendNum(eb.gen, col.Float64(row), !col.IsNull(row))
		return
	}
	if col.IsNull(row) {
		p.valsByRow.Append()
		return
	}
	code := col.Code(row)
	p.valsByRow.Append(code)
	p.addCatRow(code, row)
}

func (eb *epochBuilder) insertFKDimValue(p *BasicProperty, rel *relation.Relation, row int) {
	if fkc := rel.Column(p.Access.Column); !fkc.IsNull(row) {
		// Dimension relations are never written; reading them (and their
		// lazily built base indexes) needs no privatization.
		dim := eb.base.DB.Relation(p.Access.Dim)
		dimIdx := eb.idx.ReadIntHash(dim, p.Access.DimPK)
		vc := dim.Column(p.Access.DimValueCol)
		if dimRow, ok := dimIdx.First(fkc.Int64(row)); ok && !vc.IsNull(dimRow) {
			code := vc.Code(dimRow)
			p.valsByRow.Append(code)
			p.addCatRow(code, row)
			return
		}
	}
	p.valsByRow.Append()
}

// insertFact applies one fact-row insert to the builder's clones: only
// the properties routed through this fact table for the entities the
// row references privatize — properties of unrelated relations (and
// even direct properties of the referenced entities) keep their
// identities and cached row sets.
func (eb *epochBuilder) insertFact(factRel string, vals []relation.Value) error {
	if eb.base.DB.Relation(factRel) == nil {
		return fmt.Errorf("adb: unknown fact relation %q", factRel)
	}
	if eb.base.DB.Kind(factRel) != relation.KindUnknown {
		return fmt.Errorf("adb: %q is not a fact relation", factRel)
	}
	// Validate before privatizing: a rejected row must not dirty the
	// builder (publishing a data-identical epoch) or leave a ragged
	// clone behind.
	if err := eb.viewRel(factRel).ValidateRow(vals); err != nil {
		return err
	}
	fact := eb.baseRel(factRel)
	if err := fact.Append(vals...); err != nil {
		return err
	}
	row := fact.NumRows() - 1
	eb.rowCounts[factRel] = fact.NumRows()
	eb.idx.NoteAppend(fact, row)

	for _, fk := range fact.Foreign {
		if eb.base.Entities[fk.RefRelation] == nil {
			continue
		}
		fkCol := fact.Column(fk.Column)
		if fkCol.IsNull(row) {
			continue
		}
		// Resolve through the batch's view, so a fact can reference an
		// entity inserted earlier in the same batch.
		eRow, ok := eb.viewEntity(fk.RefRelation).RowByID(fkCol.Int64(row))
		if !ok {
			continue
		}
		info := eb.entity(fk.RefRelation)
		// Fact-dimension basic properties routed through this fact
		// (including entity-association properties), and attribute-table
		// properties when the "fact" is a single-FK side table.
		for i := range info.Basic {
			p := info.Basic[i]
			switch {
			case p.Access.Type == FactDim && p.Access.Fact == factRel && p.Access.FactEntityCol == fk.Column:
				eb.insertFactDimValue(eb.privBasic(info, i), fact, row, eRow)
			case p.Access.Type == AttrTable && p.Access.Fact == factRel && p.Access.FactEntityCol == fk.Column:
				eb.insertAttrTableValue(eb.privBasic(info, i), fact, row, eRow)
			}
		}
		// Derived properties whose first hop is this fact.
		for i := range info.Derived {
			if info.Derived[i].Fact1 != factRel || info.Derived[i].Fact1EntityCol != fk.Column {
				continue
			}
			p := eb.privDerived(info, i)
			eb.insertDerivedDelta(info, p, fact, row, eRow)
		}
	}
	eb.postText(fact, row)
	eb.noteApplied(factRel, vals)
	return nil
}

// addValueAt records code for the existing entity at eRow (fact inserts
// touch arbitrary entity rows): the entity's code list gains it at the
// end — the row's few codes are copied into the tail on its first touch
// since the last fold — and the value's posting list gains the row
// unless the entity already exhibits the value.
func (p *BasicProperty) addValueAt(code int32, eRow int) {
	had := slices.Contains(p.valsByRow.At(eRow), code)
	p.valsByRow.Extend(eRow, code)
	if !had {
		p.addCatRow(code, eRow)
	}
}

func (eb *epochBuilder) insertFactDimValue(p *BasicProperty, fact *relation.Relation, factRow, eRow int) {
	dimFK := fact.Column(p.Access.FactDimCol)
	if dimFK.IsNull(factRow) {
		return
	}
	// The "dimension" of an entity-association property is itself an
	// entity relation, which this batch may have appended to — resolve
	// through the batch's view.
	dim := eb.viewRel(p.Access.Dim)
	dimIdx := eb.idx.ReadIntHash(dim, p.Access.DimPK)
	vc := dim.Column(p.Access.DimValueCol)
	dimRow, ok := dimIdx.First(dimFK.Int64(factRow))
	if !ok || vc.IsNull(dimRow) {
		return
	}
	p.addValueAt(vc.Code(dimRow), eRow)
}

// insertAttrTableValue maintains an attribute-table basic property
// (research(aid, interest)-style) for one inserted side-table row.
func (eb *epochBuilder) insertAttrTableValue(p *BasicProperty, side *relation.Relation, sideRow, eRow int) {
	col := side.Column(p.Access.Column)
	if col.IsNull(sideRow) {
		return
	}
	p.addValueAt(col.Code(sideRow), eRow)
}

// insertDerivedDelta bumps the derived counts of one entity for the new
// association. It resolves the associated entity and the aggregated
// value(s) exactly as the batch builder does — reading via-entity and
// second-hop fact state through the batch's view, which the write
// domain locks pin — then adjusts the derived relation rows and the
// per-value selectivity indexes on private clones.
func (eb *epochBuilder) insertDerivedDelta(info *EntityInfo, p *DerivedProperty, fact *relation.Relation, factRow, eRow int) {
	viaCol := fact.Column(p.Fact1ViaCol)
	if viaCol.IsNull(factRow) {
		return
	}
	via := eb.viewRel(p.Via)
	viaIdx := eb.idx.ReadIntHash(via, p.ViaPK)
	vRow, ok := viaIdx.First(viaCol.Int64(factRow))
	if !ok {
		return
	}
	var values []string
	switch p.Target.Type {
	case Degree:
		values = []string{p.Via}
	case Direct:
		c := via.Column(p.Target.Column)
		if !c.IsNull(vRow) {
			values = []string{c.Str(vRow)}
		}
	case FKDim:
		fkc := via.Column(p.Target.Column)
		if !fkc.IsNull(vRow) {
			dim := eb.base.DB.Relation(p.Target.Dim)
			dimIdx := eb.idx.ReadIntHash(dim, p.Target.DimPK)
			vc := dim.Column(p.Target.DimValueCol)
			if dr, ok := dimIdx.First(fkc.Int64(vRow)); ok && !vc.IsNull(dr) {
				values = []string{vc.Str(dr)}
			}
		}
	case FactDim:
		fact2 := eb.viewRel(p.Target.Fact)
		dim := eb.base.DB.Relation(p.Target.Dim)
		dimIdx := eb.idx.ReadIntHash(dim, p.Target.DimPK)
		vc := dim.Column(p.Target.DimValueCol)
		d2 := fact2.Column(p.Target.FactDimCol)
		viaID := via.Column(p.ViaPK).Int64(vRow)
		// The second-fact rows of this via-entity come from the hash
		// index instead of a full fact2 scan.
		for _, r := range eb.idx.ReadIntHash(fact2, p.Target.FactEntityCol).Rows(viaID) {
			fr := int(r)
			if d2.IsNull(fr) {
				continue
			}
			if dr, ok := dimIdx.First(d2.Int64(fr)); ok && !vc.IsNull(dr) {
				values = append(values, vc.Str(dr))
			}
		}
	}
	entityID := info.IDByRow(eRow)
	for _, v := range values {
		eb.bump(p, entityID, eRow, v)
	}
}

// bump increments the (entity, value) association strength by one on
// the writer's private clones: the derived relation (count cell
// patched), its indexes (tails cloned), and the value's pair list and
// histogram (one chunk of each copied on first touch).
func (eb *epochBuilder) bump(p *DerivedProperty, entityID int64, eRow int, v string) {
	rel := eb.derivedRel(p.RelName)
	p.rel = rel
	byEnt := eb.idx.PrivateIntHash(rel, "entity_id")
	p.byEntity = byEnt
	// Locate the existing derived row by comparing value codes.
	vcol, ccol := rel.Column("value"), rel.Column("count")
	code, known := vcol.Dict().Lookup(v)
	old := 0
	found := -1
	if known {
		for _, r := range byEnt.Rows(entityID) {
			if vcol.Code(int(r)) == code {
				found = int(r)
				old = int(ccol.Int64(found))
				break
			}
		}
	}
	if found >= 0 {
		_ = ccol.Set(found, relation.IntVal(int64(old+1)))
		eb.idx.Drop(rel.Name, "count")
	} else {
		rel.MustAppend(relation.IntVal(entityID), relation.StringVal(v), relation.IntVal(1))
		code = vcol.Code(rel.NumRows() - 1)
		eb.idx.NoteAppend(rel, rel.NumRows()-1)
	}
	g := eb.gen
	for p.codes.Len() <= int(code) {
		p.codes.Append(g, codeStats{})
	}
	cs := p.codes.At(int(code))
	// Pair list: insert in entity-row order (the invariant behind
	// StrengthOf's binary search and merge intersection).
	pair := valCount{entityRow: uint32(eRow), count: uint32(old + 1)}
	if ci, off, has := cs.find(eRow); has {
		cs.pairs.SetAt(g, ci, off, pair)
	} else {
		cs.pairs.InsertAt(g, ci, off, pair)
	}
	// Histogram: one more entity at strength ≥ old+1.
	for cs.ge.Len() <= old {
		cs.ge.Append(g, 0)
	}
	cs.ge.Set(g, old, cs.ge.At(old)+1)
	p.codes.Set(g, int(code), cs)
}
