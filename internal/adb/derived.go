package adb

import (
	"fmt"
	"slices"

	"squid/internal/index"
	"squid/internal/relation"
)

// buildDerivedProperties discovers every derived property reachable
// from info's entity through fact1 to the associated entity relation
// (fkToVia.RefRelation): the degree property, aggregates over the
// associated entity's direct categorical and FK-dimension attributes
// (depth 1), and aggregates over second-fact dimension attributes such
// as persontogenre (depth 2). It builds the entity-association basic
// property and returns the derived properties as descriptors: deriveAll
// materializes them after the parallel phase, one wave for every entity.
func (a *Epoch) buildDerivedProperties(info *EntityInfo, fact1 string, fkToMe, fkToVia relation.ForeignKey) ([]*BasicProperty, []*DerivedProperty) {
	via := a.DB.Relation(fkToVia.RefRelation)
	if via.PrimaryKey == "" || via.Column(via.PrimaryKey).Type != relation.Int {
		return nil, nil
	}
	// Label the association; self edges (movie→sequelof→movie) qualify
	// the label with the FK column so the two directions stay distinct.
	viaLabel := via.Name
	if fkToVia.RefRelation == info.Relation {
		viaLabel = via.Name + "_" + fkToVia.Column
	}
	var basics []*BasicProperty
	var out []*DerivedProperty
	add := func(target AccessPath, attr string) {
		out = append(out, a.newDerived(info, fact1, fkToMe, fkToVia, target, viaLabel+":"+attr))
	}

	// Degree property: number of associated entities. Its single
	// pseudo-value is the associated relation's name.
	add(AccessPath{Type: Degree}, "count")

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
	return basics, out
}

// derivedReader is a derived property's one derivation, resolved
// against one epoch's relations and indexes. link resolves a first-fact
// row to the entity row and the via row it links; add lists the
// source-dictionary codes one via row contributes: the pseudo-value 0
// (the via relation's name) for Degree, and otherwise the codes the
// target — a basic-property path of the via entity — gives the via row
// (pairReader.appendCodes), one per second-fact row for FactDim. An
// entity's strength for a value is the count of the value's code over
// the contributions of its distinct via rows: the build sums them over
// the adjacency, an insert adds one via row's for a new pair, and
// AppendCounts sums them for one entity, reaching its first-fact rows
// through byEntity.
type derivedReader struct {
	entCol, viaCol, ids *relation.Column
	pk, viaPK, byEntity *index.IntHash
	degree              bool
	target              pairReader
}

func (p *DerivedProperty) reader(s source) derivedReader {
	fact, ent, via := s.viewRel(p.Fact1), s.viewRel(p.Entity), s.viewRel(p.Via)
	d := derivedReader{
		entCol: fact.Column(p.Fact1EntityCol), viaCol: fact.Column(p.Fact1ViaCol), ids: ent.Column(ent.PrimaryKey),
		pk: s.readHash(ent, ent.PrimaryKey), viaPK: s.readHash(via, p.ViaPK), byEntity: s.readHash(fact, p.Fact1EntityCol),
		degree: p.Target.Type == Degree,
	}
	if !d.degree {
		d.target = (&BasicProperty{Entity: p.Via, Access: p.Target}).pairs(s)
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
	if d.degree {
		return append(dst, 0)
	}
	return d.target.appendCodes(dst, vRow)
}

// factRows returns the first-fact rows that name entity row eRow's key
// when the key resolves to eRow: a repeated key's rows link its first
// row, as link resolves them.
func (d *derivedReader) factRows(eRow int) (base, tail []uint32) {
	id := d.ids.Int64(eRow)
	if first, ok := d.pk.First(id); d.ids.IsNull(eRow) || !ok || first != eRow {
		return nil, nil
	}
	return d.byEntity.Rows(id)
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
// tentative: deriveAll resolves collisions.
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

// deriveAll derives the properties of one epoch — the cold build's and
// the snapshot load's, so a loaded property is a built one byte for
// byte. It names their relations in the order given, the first of base,
// base_2, base_3, ... that neither an earlier one nor a base relation
// holds (a loaded name was checked unique and free, Decode, so it stays
// as stored), then runs one wave over the workers: the properties are
// grouped by the first-fact link they walk, each group's adjacency is
// built once, and then every property is materialized over its group's.
func (a *Epoch) deriveAll(derived []*DerivedProperty) {
	type link struct{ entity, fact, entCol, viaCol, via, viaPK string }
	groups := make(map[link]int)
	var firsts []*DerivedProperty
	groupOf := make([]int, len(derived))
	taken := make(map[string]bool, len(derived))
	for i, p := range derived {
		base := p.RelName
		for n := 2; taken[p.RelName] || a.DB.Relation(p.RelName) != nil; n++ {
			p.RelName = fmt.Sprintf("%s_%d", base, n)
		}
		taken[p.RelName] = true
		k := link{p.Entity, p.Fact1, p.Fact1EntityCol, p.Fact1ViaCol, p.Via, p.ViaPK}
		g, ok := groups[k]
		if !ok {
			g = len(firsts)
			groups[k] = g
			firsts = append(firsts, p)
		}
		groupOf[i] = g
	}
	workers := a.cfg.workers()
	adjacency := make([][][]int, len(firsts))
	index.RunBounded(len(firsts), workers, func(g int) { adjacency[g] = a.adjacencyOf(firsts[g]) })
	index.RunBounded(len(derived), workers, func(i int) { a.materializeDerived(derived[i], adjacency[groupOf[i]]) })
}

// adjacencyOf lists, for every row of p's entity, the distinct via rows
// the first fact links it to, ascending. Several fact rows linking one
// pair (an actor with several roles in one movie) count once, matching
// the DISTINCT semantics of the paper's Q6 per (person, movie) pair.
func (a *Epoch) adjacencyOf(p *DerivedProperty) [][]int {
	r := p.reader(a)
	adjacency := make([][]int, a.Entities[p.Entity].NumRows)
	fact := a.DB.Relation(p.Fact1)
	for fr := range fact.NumRows() {
		if eRow, vRow, ok := r.link(fr); ok {
			adjacency[eRow] = append(adjacency[eRow], vRow)
		}
	}
	for i, vs := range adjacency {
		slices.Sort(vs)
		adjacency[i] = slices.Compact(vs)
	}
	return adjacency
}

// materializeDerived derives a property's statistics from its
// adjacency — for each entity, the count of every value over the
// contributions of its distinct via rows, the in-Go equivalent of the
// paper's Q6 CREATE TABLE ... GROUP BY — and keeps its reader, which
// answers one entity's counts from then on (AppendCounts). The build
// and the snapshot load both run it (deriveAll). The tabulation never
// leaves code space: each via row's contributions are listed once as
// source-dictionary codes, and an entity's counts are summed in a dense
// counter indexed by code, each code's (entity row, strength) pair
// appended to the code's list, so every list is in entity-row order. The
// codes are the source dictionary's, so no value is translated; Degree's
// one pseudo-code indexes a dictionary of its own. A chunk of a pair
// list is its own allocation, so a chunk an insert later replaces is
// freed on its own instead of being pinned by its neighbors' array.
func (a *Epoch) materializeDerived(p *DerivedProperty, adjacency [][]int) {
	c := p.reader(a)
	p.walk, p.dict = c, c.target.dict
	if c.degree {
		p.dict = relation.RestoreDict([]string{p.Via})
	}
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
	count := make([]int32, n)
	var touched []int32
	pairs := make([]relation.Chunked[valCount], n)
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
		for _, code := range touched {
			pairs[code].Append(nil, valCount{entityRow: uint32(eRow), count: uint32(count[code])})
			count[code] = 0
		}
	}
	stats := make([]codeStats, n)
	for code := range pairs {
		if pairs[code].Len() > 0 {
			stats[code] = newCodeStats(pairs[code])
		}
	}
	p.codes = relation.ChunkedOf(stats)
	p.memo = newRowSetMemo(a.selCache)
	p.schema = p.viewRows(a.Entities[p.Entity], []int32{})
}
