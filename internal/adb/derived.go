package adb

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"squid/internal/index"
	"squid/internal/relation"
)

// buildDerivedProperties discovers every derived property reachable
// from info's entity through fact1 to the associated entity relation
// (fkToVia.RefRelation): the degree property, aggregates over the
// associated entity's direct categorical and FK-dimension attributes
// (depth 1), and aggregates over second-fact dimension attributes such
// as persontogenre (depth 2). It computes the shared adjacency and the
// entity-association basic property inline, but returns the per-property
// materializations as deferred build closures (parallel to the returned
// derived shells) so the second fan-out wave runs them concurrently —
// one fact pair can dominate the offline phase otherwise. Everything
// built here is task-local; finishEntity registers the derived relations
// and indexes after the parallel phase.
func (a *Epoch) buildDerivedProperties(info *EntityInfo, fact1 string, fkToMe, fkToVia relation.ForeignKey) ([]*BasicProperty, []*DerivedProperty, []func() error, error) {
	via := a.DB.Relation(fkToVia.RefRelation)
	if via.PrimaryKey == "" || via.Column(via.PrimaryKey).Type != relation.Int {
		return nil, nil, nil, nil
	}
	// Label the association; self edges (movie→sequelof→movie) qualify
	// the label with the FK column so the two directions stay distinct.
	viaLabel := via.Name
	if fkToVia.RefRelation == info.Relation {
		viaLabel = via.Name + "_" + fkToVia.Column
	}
	var basics []*BasicProperty
	var out []*DerivedProperty
	var builds []func() error
	add := func(target AccessPath, attr string) {
		out = append(out, a.newDerived(info, fact1, fkToMe, fkToVia, target, viaLabel+":"+attr))
	}

	// Degree property: number of associated entities. Its single
	// pseudo-value is the associated relation's name.
	add(AccessPath{Type: Degree}, "count")

	// adjacency: entity row -> distinct associated via-rows. Multiple
	// fact rows linking the same pair (e.g. an actor with several roles
	// in one movie) count once, matching the DISTINCT semantics of the
	// paper's Q6 per (person, movie) pair contribution.
	fact := a.DB.Relation(fact1)
	r := out[0].reader(a)
	adjacency := make([][]int, info.NumRows)
	for fr := range fact.NumRows() {
		if eRow, vRow, ok := r.link(fr); ok {
			adjacency[eRow] = append(adjacency[eRow], vRow)
		}
	}
	for i, vs := range adjacency {
		slices.Sort(vs)
		adjacency[i] = slices.Compact(vs)
	}

	// Entity-association basic property: the set of associated entities
	// themselves, identified by their display value (e.g. for person,
	// the titles of the movies they appear in). This is what lets SQuID
	// discover contexts such as "all examples appeared in Pulp Fiction"
	// (IQ1/IQ2/IQ5/IQ6 of the paper's benchmark).
	if assoc := a.buildEntityAssocProperty(info, fact1, fkToMe, fkToVia, via); assoc != nil {
		basics = append(basics, assoc)
	}

	// Depth-1: aggregate over the associated entity's direct
	// categorical columns and FK-dimension attributes.
	viaFKs := make(map[string]relation.ForeignKey)
	for _, fk := range via.Foreign {
		viaFKs[fk.Column] = fk
	}
	for _, col := range via.Columns() {
		if col.Name == via.PrimaryKey {
			continue
		}
		if fk, isFK := viaFKs[col.Name]; isFK {
			if a.DB.Kind(fk.RefRelation) != relation.KindProperty {
				continue
			}
			dim := a.DB.Relation(fk.RefRelation)
			if valColName := a.dimValueColumn(dim); valColName != "" {
				add(AccessPath{
					Type: FKDim, Column: fk.Column,
					Dim: dim.Name, DimPK: fk.RefColumn, DimValueCol: valColName,
				}, dim.Name)
			}
			continue
		}
		// Numeric attributes of associated entities are not aggregated
		// (see DESIGN.md: bucketed categorical columns such as decade
		// stand in for them).
		if col.Type == relation.String && a.keepCategorical(col.DistinctCount(), via.NumRows()) {
			add(AccessPath{Type: Direct, Column: col.Name}, col.Name)
		}
	}

	// Depth-2: aggregate over a second fact table from the associated
	// entity into a dimension (persontogenre through castinfo and
	// movietogenre, Fig 5).
	if a.cfg.MaxFactDepth >= 2 {
		for _, fact2Name := range a.DB.RelationNames() {
			fact2 := a.DB.Relation(fact2Name)
			if fact2Name == fact1 || a.DB.Kind(fact2Name) != relation.KindUnknown || len(fact2.Foreign) < 2 {
				continue
			}
			for _, fkToVia2 := range fact2.Foreign {
				if fkToVia2.RefRelation != via.Name {
					continue
				}
				for _, fkToDim := range fact2.Foreign {
					if fkToDim == fkToVia2 || a.DB.Kind(fkToDim.RefRelation) != relation.KindProperty {
						continue
					}
					dim := a.DB.Relation(fkToDim.RefRelation)
					if valColName := a.dimValueColumn(dim); valColName != "" {
						add(AccessPath{
							Type: FactDim,
							Fact: fact2Name, FactEntityCol: fkToVia2.Column, FactDimCol: fkToDim.Column,
							Dim: dim.Name, DimPK: fkToDim.RefColumn, DimValueCol: valColName,
						}, dim.Name)
					}
				}
			}
		}
	}
	for _, p := range out {
		builds = append(builds, func() error { return a.materializeDerived(info, p, adjacency) })
	}
	return basics, out, builds, nil
}

// derivedReader is a derived property's one derivation. link resolves
// a first-fact row to the entity row and the via row it links; add
// lists the source-dictionary codes one via row contributes: the
// pseudo-value 0 (the via relation's name) for Degree, and otherwise
// the codes the target — a basic-property path of the via entity —
// gives the via row, one per second-fact row for FactDim. An entity's
// strength for a value is the count of the value's code over the
// contributions of its distinct via rows: the build sums them over the
// adjacency, an insert adds one via row's for a new pair.
type derivedReader struct {
	entCol, viaCol *relation.Column
	pk, viaPK      *index.IntHash
	degree         string // Degree's pseudo-value; empty for a target
	target         pairReader
	// FactDim: the via rows' keys. The second fact's rows by via key are
	// read on first use: an insert of a second-fact row never asks.
	ids *relation.Column
}

func (p *DerivedProperty) reader(s source) derivedReader {
	fact, ent, via := s.viewRel(p.Fact1), s.viewRel(p.Entity), s.viewRel(p.Via)
	d := derivedReader{
		entCol: fact.Column(p.Fact1EntityCol), viaCol: fact.Column(p.Fact1ViaCol),
		pk: s.readHash(ent, ent.PrimaryKey), viaPK: s.readHash(via, p.ViaPK),
	}
	if p.Target.Type == Degree {
		d.degree = p.Via
		return d
	}
	d.target = (&BasicProperty{Entity: p.Via, Access: p.Target}).pairs(s)
	if p.Target.Type == FactDim {
		d.ids = via.Column(p.ViaPK)
	}
	return d
}

// link is ok false when a key is NULL or names no row.
func (d *derivedReader) link(fr int) (eRow, vRow int, ok bool) {
	if d.entCol.IsNull(fr) || d.viaCol.IsNull(fr) {
		return 0, 0, false
	}
	if eRow, ok = d.pk.First(d.entCol.Int64(fr)); !ok {
		return 0, 0, false
	}
	vRow, ok = d.viaPK.First(d.viaCol.Int64(fr))
	return eRow, vRow, ok
}

// add appends the codes via row vRow contributes to dst.
func (d *derivedReader) add(vRow int, dst []int32) []int32 {
	switch {
	case d.degree != "":
		return append(dst, 0)
	case d.ids == nil:
		if _, code, ok := d.target.pair(vRow); ok {
			dst = append(dst, code)
		}
	default:
		t := &d.target
		base, tail := t.s.readHash(t.src, t.acc.FactEntityCol).Rows(d.ids.Int64(vRow))
		for _, run := range [2][]uint32{base, tail} {
			for _, r := range run {
				if _, code, ok := t.pair(int(r)); ok {
					dst = append(dst, code)
				}
			}
		}
	}
	return dst
}

// decode returns the value a code stands for.
func (d *derivedReader) decode(code int32) string {
	if d.degree != "" {
		return d.degree
	}
	return d.target.dict.Value(code)
}

// entityDisplayColumn resolves the display column of an entity relation
// for entity-association properties.
func (a *Epoch) entityDisplayColumn(ent *relation.Relation) string {
	if c, ok := a.cfg.DisplayColumn[ent.Name]; ok {
		return c
	}
	for _, col := range ent.Columns() {
		if col.Type == relation.String {
			return col.Name
		}
	}
	return ""
}

// buildEntityAssocProperty creates the multi-valued basic property
// holding the display values of the entities associated through fact1.
func (a *Epoch) buildEntityAssocProperty(info *EntityInfo, fact1 string, fkToMe, fkToVia relation.ForeignKey, via *relation.Relation) *BasicProperty {
	valCol := a.entityDisplayColumn(via)
	if valCol == "" {
		return nil
	}
	return a.buildCategorical(info, via.Name, AccessPath{
		Type: FactDim,
		Fact: fact1, FactEntityCol: fkToMe.Column, FactDimCol: fkToVia.Column,
		Dim: via.Name, DimPK: via.PrimaryKey, DimValueCol: valCol,
	})
}

// newDerived initializes a DerivedProperty shell. The relation name is
// tentative — finishEntity resolves collisions when it registers the
// materialized relation into the derived database.
func (a *Epoch) newDerived(info *EntityInfo, fact1 string, fkToMe, fkToVia relation.ForeignKey, target AccessPath, attr string) *DerivedProperty {
	return &DerivedProperty{
		Entity:         info.Relation,
		Via:            fkToVia.RefRelation,
		ViaPK:          a.DB.Relation(fkToVia.RefRelation).PrimaryKey,
		Attr:           attr,
		Fact1:          fact1,
		Fact1EntityCol: fkToMe.Column,
		Fact1ViaCol:    fkToVia.Column,
		Target:         target,
		RelName:        info.Relation + "to" + sanitizeRelName(attr),
		numEntities:    info.NumRows,
	}
}

func sanitizeRelName(attr string) string {
	out := make([]rune, 0, len(attr))
	for _, r := range attr {
		if r == ':' || r == '.' || r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// materializeDerived computes the (entity_id, value, count) rows of a
// derived property — for each entity, the count of every value over the
// contributions of its distinct via rows — stores the derived relation,
// and builds its statistics (the in-Go equivalent of the paper's Q6
// CREATE TABLE ... GROUP BY). The tabulation never leaves code space:
// each via row's contributions are listed once as source-dictionary
// codes, an entity's counts are summed in a dense counter indexed by
// code, and only the codes it touched are ordered — by the source
// dictionary's rank table, which is the order of their values, no two
// codes of one dictionary sharing one — and cleared. A source code is
// translated to the derived value dictionary on its first emission, so
// the rows come in entity-row order and then value order, the
// dictionary holds its values in first-emission order, and the columns
// grow as appending row by row would have grown them, so the first
// insert finds the same spare capacity to append into. The relation and
// its entity index stay task-local until finishEntity registers them.
func (a *Epoch) materializeDerived(info *EntityInfo, p *DerivedProperty, adjacency [][]int) error {
	c := p.reader(a)
	via := a.DB.Relation(p.Via)
	offs := make([]uint32, via.NumRows()+1)
	var codes []int32
	for vRow := range via.NumRows() {
		codes = c.add(vRow, codes)
		offs[vRow+1] = uint32(len(codes))
	}
	n := 0
	if len(codes) > 0 {
		n = int(slices.Max(codes)) + 1
	}
	// count is indexed by source code; derived holds a source code's
	// derived code plus one, zero until the code is first emitted.
	count, derived := make([]int32, n), make([]int32, n)
	var touched []int32
	var ids, counts []int64
	var vals []int32
	var dict []string
	pkCol := info.rel.Column(info.PK)
	for eRow, viaRows := range adjacency {
		touched = touched[:0]
		for _, vRow := range viaRows {
			for _, code := range codes[offs[vRow]:offs[vRow+1]] {
				if count[code] == 0 {
					touched = append(touched, code)
				}
				count[code]++
			}
		}
		// The degree property's one pseudo-code needs no order.
		if len(touched) > 1 {
			c.target.dict.SortCodes(touched)
		}
		id := pkCol.Int64(eRow)
		for _, code := range touched {
			if derived[code] == 0 {
				dict = append(dict, c.decode(code))
				derived[code] = int32(len(dict))
			}
			ids = append(ids, id)
			vals = append(vals, derived[code]-1)
			counts = append(counts, int64(count[code]))
			count[code] = 0
		}
	}
	p.rel = relation.Restore(p.RelName, "",
		[]relation.ForeignKey{{Column: "entity_id", RefRelation: p.Entity, RefColumn: info.PK}},
		[]*relation.Column{
			relation.RestoreIntColumn("entity_id", ids, nil),
			relation.RestoreStringColumn("value", vals, relation.RestoreDict(dict), nil),
			relation.RestoreIntColumn("count", counts, nil),
		}, len(ids))
	p.memo = newRowSetMemo(a.selCache)
	p.byEntity = index.BuildIntHash(p.rel, "entity_id")
	return a.buildPairs(info, p)
}

// buildPairs derives a derived property's per-value statistics — every
// value's (entity row, strength) pair list and its histogram — from the
// rows of its derived relation. It is their one constructor:
// materializeDerived runs it over the relation it just emitted, Decode
// over one read from a file, which is why the cells are checked here —
// NULL, an entity_id no entity has, a strength no association can have,
// an (entity, value) listed twice. Every chunk of a pair list is its own
// allocation, so a chunk an insert later replaces is freed on its own
// instead of being pinned by its neighbors' array.
func (a *Epoch) buildPairs(info *EntityInfo, p *DerivedProperty) error {
	ecol, vcol, ccol := p.rel.Column("entity_id"), p.rel.Column("value"), p.rel.Column("count")
	// A strength counts fact rows, so the database's row count bounds
	// it — and with it the histogram a damaged count could ask for. Pairs
	// are 32 bits wide.
	maxCount := int64(min(a.DB.TotalRows(), math.MaxUint32))
	var pairs []index.Chunked[valCount]
	// Rows arrive in entity order from a build; inserts append theirs at
	// the end of the relation, and the lists they touched are sorted below.
	var unsorted []bool
	for r := 0; r < p.rel.NumRows(); r++ {
		if ecol.IsNull(r) || vcol.IsNull(r) || ccol.IsNull(r) {
			return fmt.Errorf("adb: derived relation %q: NULL cell in row %d", p.RelName, r)
		}
		eRow, ok := info.pkIndex.First(ecol.Int64(r))
		if !ok {
			return fmt.Errorf("adb: derived relation %q: row %d names entity %d, which %q does not hold", p.RelName, r, ecol.Int64(r), info.Relation)
		}
		cnt := ccol.Int64(r)
		if cnt < 1 || cnt > maxCount {
			return fmt.Errorf("adb: derived relation %q: strength %d in row %d out of range", p.RelName, cnt, r)
		}
		code := int(vcol.Code(r))
		for len(pairs) <= code {
			pairs = append(pairs, index.Chunked[valCount]{})
			unsorted = append(unsorted, false)
		}
		if n := pairs[code].Len(); n > 0 && int(pairs[code].At(n-1).entityRow) >= eRow {
			unsorted[code] = true
		}
		pairs[code].Append(nil, valCount{entityRow: uint32(eRow), count: uint32(cnt)})
	}
	codes := make([]codeStats, len(pairs))
	for code := range pairs {
		if unsorted[code] {
			var ok bool
			if pairs[code], ok = sortedPairs(pairs[code]); !ok {
				return fmt.Errorf("adb: derived relation %q: an entity lists value %q twice", p.RelName, vcol.Dict().Value(int32(code)))
			}
		}
		codes[code] = newCodeStats(pairs[code])
	}
	p.codes = index.ChunkedOf(codes)
	return nil
}

// sortedPairs rebuilds a pair list in entity-row order — the invariant
// behind StrengthOfCode's binary search — and reports whether every
// entity appears in it once.
func sortedPairs(pairs index.Chunked[valCount]) (index.Chunked[valCount], bool) {
	flat := make([]valCount, 0, pairs.Len())
	for _, vc := range pairs.All() {
		flat = append(flat, vc)
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].entityRow < flat[j].entityRow })
	var out index.Chunked[valCount]
	for i, vc := range flat {
		if i > 0 && flat[i-1].entityRow == vc.entityRow {
			return out, false
		}
		out.Append(nil, vc)
	}
	return out, true
}
