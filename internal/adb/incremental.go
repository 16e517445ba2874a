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
// headers of the relations, per-property statistics, and indexes the
// batch touches, copies only the chunks and tails it writes into
// (relation.Chunked, index.IntHash, index.Postings),
// structurally shares everything else with the base epoch, and
// publishes the result with one atomic pointer swap (AlphaDB.publish).
// Readers pinned to older epochs are never stalled and never observe a
// half-applied batch.
//
// An insert derives nothing of its own: it applies the functions the
// cold build folds over every row (pairReader, derivedReader) to the
// rows it adds, so a maintained αDB is the one a cold build of the same
// rows makes. Only inserts are supported, so every change adds: a new
// fact row adds its pair to a basic property, its via row's
// contribution to a derived one unless the pair was linked already, and
// its value to every entity a first fact links to it when it is a
// second fact; a new entity row applies the rows that named it before
// it existed. A categorical property keeps no per-row codes to
// maintain: its path reads them from the relations and indexes, and
// the writer re-points it at its batch's final ones. Deletions still
// require a rebuild.
//
// Writers run one at a time (AlphaDB.writeMu), so every publish extends
// the epoch its builder started from.

// epochBuilder accumulates one writer's copy-on-write changes against
// a base epoch. Privatization is lazy and per-structure: the first
// touch of a relation, property or index clones its header; the first
// write into a chunk of a chunked vector copies that chunk (stamped
// with gen, so later touches in the same batch mutate it in place); a
// layered structure — a hash index, a categorical property's posting
// lists — copies its tail when the property or shard is cloned and
// writes into that. Lists shared with the base are only ever
// appended past the base's lengths: a posting list keeps its new rows
// in the tail beside its base.
type epochBuilder struct {
	base *Epoch
	idx  *index.IndexDelta
	// gen is this writer's generation: it stamps every chunk and table
	// the builder copies, and tallies the bytes copied (chunks, index
	// tails and folds, updated columns) — what the epoch this publish
	// retires keeps alive on its own.
	gen *relation.Gen

	baseRels map[string]*relation.Relation // privatized base relations
	entities map[string]*EntityInfo        // privatized entity infos
	isPriv   map[any]bool                  // clones created by this builder

	// logRows, when set (a publish hook is attached), makes the builder
	// record every successfully applied row in apply order — the epoch
	// delta a write-ahead log record carries. Apply order matters:
	// replaying the rows through the same insert path reproduces the
	// epoch byte-identically, including a fact row that referenced an
	// entity inserted later in the batch.
	logRows bool
	applied []AppliedRow

	// bumped counts the (entity, value) strengths the batch raised.
	bumped int
	codes  []int32 // scratch for one via row's contribution
	// entityNames lists the entity relations in a fixed order, the order
	// a row applies to their properties in.
	entityNames []string
	// readers holds the batch's reader of every property it applied a
	// row to. A reader holds columns and indexes of the batch's view,
	// which only baseRel changes: it empties the map.
	readers map[any]any
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

// newEpochBuilder starts a writer on the current epoch, logging its
// rows when a publish hook is attached.
func (a *AlphaDB) newEpochBuilder() *epochBuilder {
	gen, base := new(relation.Gen), a.Snapshot()
	return &epochBuilder{
		logRows:     a.publishHook != nil,
		base:        base,
		idx:         index.NewIndexDelta(base.Indexes, gen),
		gen:         gen,
		baseRels:    make(map[string]*relation.Relation),
		entities:    make(map[string]*EntityInfo),
		isPriv:      make(map[any]bool),
		readers:     make(map[any]any),
		entityNames: base.DB.EntityRelations(),
	}
}

// dirty reports whether the builder changed anything worth publishing.
func (eb *epochBuilder) dirty() bool {
	return len(eb.baseRels) > 0 || len(eb.entities) > 0
}

// finalize re-points the path of every categorical property and the
// walk of every derived property the batch cloned at the batch's final
// relations and indexes, and rebuilds the attribute maps of privatized
// entities (their clones still index the base's property pointers)
// before publish. A property the batch did not clone keeps the reader
// of an earlier epoch: an insert that changes an entity's codes or
// strengths clones the property, so the rows that reader reads give
// what they gave.
func (eb *epochBuilder) finalize() {
	for _, info := range eb.entities {
		for _, p := range info.Basic {
			if eb.isPriv[p] && p.Kind == Categorical {
				p.path = p.pairs(eb)
			}
		}
		for _, p := range info.Derived {
			if eb.isPriv[p] {
				p.walk = p.reader(eb)
			}
		}
		info.buildAttrMaps()
	}
}

// baseRel privatizes a base relation for appends.
func (eb *epochBuilder) baseRel(name string) *relation.Relation {
	if r := eb.baseRels[name]; r != nil {
		return r
	}
	r := eb.base.DB.Relation(name).CloneForWrite(eb.gen)
	eb.baseRels[name] = r
	clear(eb.readers)
	return r
}

// readerOf returns the batch's reader of property p, made by newReader
// on first use.
func readerOf[R any](eb *epochBuilder, p any, newReader func(source) R) *R {
	r, ok := eb.readers[p].(*R)
	if !ok {
		r = new(R)
		*r = newReader(eb)
		eb.readers[p] = r
	}
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
	q := *old
	q.Basic = append([]*BasicProperty(nil), old.Basic...)
	q.Derived = append([]*DerivedProperty(nil), old.Derived...)
	eb.entities[name] = &q
	return &q
}

// readHash serves the per-row functions' point lookups from the batch's
// view (see index.IndexDelta.ReadIntHash).
func (eb *epochBuilder) readHash(rel *relation.Relation, col string) *index.IntHash {
	return eb.idx.ReadIntHash(rel, col)
}

func (eb *epochBuilder) isEntity(name string) bool { return eb.base.Entities[name] != nil }

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

// InsertOp describes one row of an InsertBatch: the target relation
// (entity or fact, dispatched automatically) and its values.
type InsertOp struct {
	Rel  string
	Vals []relation.Value
}

// InsertBatch appends many rows — entity and fact rows may be mixed —
// into one copy-on-write epoch (the §9 dynamic-dataset extension),
// amortizing the structure clones and the publish over the whole batch:
// the touched relations' statistics are cloned once per batch, not once
// per row, and readers observe the batch atomically (all rows or,
// before the publish, none). Safe to call concurrently with discovery
// (readers are wait-free on their pinned epochs) and with other inserts,
// which wait: one batch at a time holds the write lock, from loading its
// base epoch through the publish and its WAL append. Rows apply in
// order; on the first failure the batch stops, already-applied rows are
// still published (append-only maintenance has no rollback), and the
// error reports the failing row's index.
//
// sp attributes the work: the write-lock acquisition is a publish_wait
// span (the time this batch spent blocked behind other writers), the
// copy-on-write apply loop is an apply span counting its rows, the
// derived strengths it raised (pairs_bumped) and the bytes it copied out
// of storage the base epoch shares (copied_bytes), and the publish step
// (with its WAL append) nests under publish. The zero Span records
// nothing.
func (a *AlphaDB) InsertBatch(ops []InsertOp, sp trace.Span) error {
	if len(ops) == 0 {
		return nil
	}
	ws := sp.Child(trace.PhasePublishWait, "")
	a.writeMu.Lock()
	ws.End()
	defer a.writeMu.Unlock()
	eb := a.newEpochBuilder()
	as := sp.Child(trace.PhaseApply, "")
	var firstErr error
	for i, op := range ops {
		apply := (*epochBuilder).insertFact
		if eb.base.Entities[op.Rel] != nil {
			apply = (*epochBuilder).insertEntity
		}
		if err := apply(eb, op.Rel, op.Vals); err != nil {
			firstErr = fmt.Errorf("adb: batch insert %d into %q: %w", i, op.Rel, err)
			break
		}
		as.Add(trace.CounterRows, 1)
	}
	as.Add(trace.CounterPairsBumped, int64(eb.bumped))
	as.Add(trace.CounterCopiedBytes, eb.gen.Copied)
	as.End()
	a.publish(eb, sp)
	return firstErr
}

// insertEntity applies one entity-row insert to the builder's clones:
// every property of the entity shifts (the selectivity denominator |R|
// grew), so all of them privatize — but only of this entity; other
// relations' properties keep their identities and their cached row
// sets unless a fact row already names the new entity.
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
	// The row must keep the schema rule (checkSchema): its key is
	// neither NULL nor one the relation holds.
	pk := vals[pkIdx]
	if pk.IsNull() {
		return fmt.Errorf("adb: %w", keyError(entityRel, view.PrimaryKey, true))
	}
	if _, dup := eb.viewEntity(entityRel).RowByID(pk.Int()); dup {
		return fmt.Errorf("adb: %w", keyError(entityRel, view.PrimaryKey, false))
	}
	info := eb.entity(entityRel)
	rel := eb.baseRel(entityRel)
	info.rel = rel
	if err := rel.Append(vals...); err != nil {
		return err
	}
	row := rel.NumRows() - 1
	info.NumRows = rel.NumRows()
	// Privatize and maintain every resident index of this relation
	// (including the primary-key index) for the new row.
	eb.idx.NoteAppend(rel, row)
	info.pkIndex = eb.idx.ReadIntHash(rel, rel.PrimaryKey)

	for i := range info.Basic {
		p := eb.privBasic(info, i)
		p.numEntities = info.NumRows
		switch {
		case p.Kind == Numeric:
			p.insertNum(eb.gen, rel.Column(p.Access.Column), row)
		case p.Access.Type == Direct || p.Access.Type == FKDim:
			// The new row is the property's source row; fact and side
			// rows reach it below.
			if _, code, ok := readerOf(eb, p, p.pairs).pair(row); ok {
				p.addCatRow(code, row)
			}
		}
	}
	for i := range info.Derived {
		eb.privDerived(info, i).numEntities = info.NumRows
	}
	eb.applyNaming(entityRel, row, pk.Int())
	eb.noteApplied(entityRel, vals)
	return nil
}

// insertFact applies one fact-row insert to the builder's clones: only
// the properties the row feeds, for the entities it reaches, privatize —
// properties of unrelated relations (and even direct properties of the
// referenced entities) keep their identities and cached row sets.
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
	eb.idx.NoteAppend(fact, row)
	eb.applyFact(fact, row, nil)
	eb.noteApplied(factRel, vals)
	return nil
}

// arrival is the entity row whose insert applies the fact rows that
// already name it (see applyNaming).
type arrival struct {
	rel string
	row int
	id  int64
}

// applyNaming applies the fact and side rows that name a new entity row
// — a fact may precede its entity, in one batch or across batches — in
// row order.
func (eb *epochBuilder) applyNaming(entityRel string, row int, id int64) {
	at := &arrival{rel: entityRel, row: row, id: id}
	for _, name := range eb.base.DB.RelationNames() {
		if eb.base.DB.Kind(name) != relation.KindUnknown {
			continue
		}
		fact := eb.viewRel(name)
		var rows []uint32
		for _, fk := range fact.Foreign {
			if fk.RefRelation == entityRel {
				for fr := range eb.readHash(fact, fk.Column).Rows(id).All() {
					rows = append(rows, fr)
				}
			}
		}
		slices.Sort(rows)
		for _, fr := range slices.Compact(rows) {
			eb.applyFact(fact, int(fr), at)
		}
	}
}

// applyFact applies one fact or side row to the properties it feeds,
// through the readers the build folds. A new row (at nil) applies
// whole, and as a second-fact row too: it adds its value to every
// entity the first fact links to its via row. An older row, applied
// because the entity at arrived, applies only what involves that
// entity: the rest applied when the row was inserted, or waits for an
// entity still missing. Strengths only grow, so each addition is exact:
// a new pair adds its via row's contribution, a repeated pair nothing.
func (eb *epochBuilder) applyFact(fact *relation.Relation, fr int, at *arrival) {
	for _, entity := range eb.entityNames {
		view := eb.viewEntity(entity)
		for i, p := range view.Basic {
			if p.Access.Fact != fact.Name || (p.Access.Type != FactDim && p.Access.Type != AttrTable) {
				continue
			}
			r := readerOf(eb, p, p.pairs)
			eRow, code, ok := r.pair(fr)
			// An older row applies only for the arrival it names: its
			// entity, or the associated entity of an association.
			if !ok || at != nil && (at.rel != entity || at.row != eRow) && (p.Access.Dim != at.rel || r.col.Int64(fr) != at.id) {
				continue
			}
			// The row changes the entity's codes, so the property is
			// cloned even when the entity already exhibits the value.
			q := eb.privBasic(eb.entity(entity), i)
			if !q.catRows.Contains(int(code), uint32(eRow)) {
				q.addCatRow(code, eRow)
			}
		}
		for i, p := range view.Derived {
			switch {
			case p.Fact1 == fact.Name:
				r := readerOf(eb, p, p.reader)
				eRow, vRow, ok := r.link(fr)
				if !ok || at != nil && !(at.rel == entity && at.row == eRow) && !(at.rel == p.Via && at.row == vRow) ||
					!newPairCheck(eb, fact, p.Fact1EntityCol, p.Fact1ViaCol).first(fr) {
					continue
				}
				eb.codes = r.add(vRow, eb.codes[:0])
				eb.addContrib(entity, i, []int{eRow})
			case at == nil && p.Target.Type == FactDim && p.Target.Fact == fact.Name:
				r := readerOf(eb, p, p.reader)
				vRow, code, ok := r.target.pair(fr)
				if !ok {
					continue
				}
				var linked []int
				for lr := range eb.readHash(eb.viewRel(p.Fact1), p.Fact1ViaCol).Rows(r.target.ids.Int64(vRow)).All() {
					if eRow, _, ok := r.link(int(lr)); ok && !slices.Contains(linked, eRow) {
						linked = append(linked, eRow)
					}
				}
				eb.codes = append(eb.codes[:0], code)
				eb.addContrib(entity, i, linked)
			}
		}
	}
}

// addContrib adds the codes in eb.codes to the strengths of each entity
// row in the i-th derived property of entity.
func (eb *epochBuilder) addContrib(entity string, i int, eRows []int) {
	if len(eb.codes) == 0 || len(eRows) == 0 {
		return
	}
	p := eb.privDerived(eb.entity(entity), i)
	for _, eRow := range eRows {
		for _, code := range eb.codes {
			eb.bump(p, eRow, code)
		}
	}
}

// bump increments the (entity, value) association strength by one on
// the writer's private clone of the property, copying on first touch
// only what it writes. Raising a strength c → c+1 below 255 writes its
// byte: one 256-byte strength chunk, the rows untouched. At or past 255
// it writes the side table instead (codeStats.setStrength). In a dense
// column a new pair is a byte raised from 0, and a row past the
// column's end is first appended; in a list a new pair inserts into the
// row and strength vectors at one place, both splitting a full chunk
// alike. The histogram gains one entity at strength ≥ c+1.
func (eb *epochBuilder) bump(p *DerivedProperty, eRow int, code int32) {
	eb.bumped++
	g := eb.gen
	for p.codes.Len() <= int(code) {
		p.codes.Append(g, codeStats{})
	}
	cs := p.codes.At(int(code))
	old, row := 0, uint32(eRow)
	if cs.dense {
		for cs.strengths.Len() <= eRow {
			cs.strengths.Append(g, 0)
		}
		ci, off := cs.strengths.Locate(eRow)
		old = cs.exact(cs.strengths.Chunk(ci)[off], row)
		cs.setStrength(g, ci, off, row, old+1)
	} else if ci, off, has := cs.find(eRow, p.numEntities); has {
		old = cs.exact(cs.strengths.Chunk(ci)[off], row)
		cs.setStrength(g, ci, off, row, old+1)
	} else {
		// Pair list: insert in entity-row order (the invariant behind
		// find and the merge intersection).
		cs.insertPair(g, ci, off, row)
	}
	// Histogram: one more entity at strength ≥ old+1.
	for cs.ge.Len() <= old {
		cs.ge.Append(g, 0)
	}
	cs.ge.Set(g, old, cs.ge.At(old)+1)
	p.codes.Set(g, int(code), cs)
}
