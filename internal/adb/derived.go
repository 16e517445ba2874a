package adb

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"squid/internal/index"
	"squid/internal/relation"
)

// buildDerivedProperties discovers every derived property reachable
// from info's entity through fact1 to the associated entity relation
// (fkToVia.RefRelation): the degree property, aggregates over the
// associated entity's direct categorical and FK-dimension attributes
// (depth 1), and aggregates over second-fact dimension attributes such
// as persontogenre (depth 2). It builds the entity-association basic
// property over adj, the link's adjacency, and returns the derived
// properties as descriptors: deriveAll materializes them after the
// parallel phase, one wave for every entity. The via relation has an
// INTEGER primary key (planEntity).
func (a *Epoch) buildDerivedProperties(info *EntityInfo, fact1 string, fkToMe, fkToVia relation.ForeignKey, adj *adjacency) ([]*BasicProperty, []*DerivedProperty) {
	via := a.DB.Relation(fkToVia.RefRelation)
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
	if assoc := a.buildEntityAssocProperty(info, fact1, fkToMe, fkToVia, via, adj); assoc != nil {
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
			if valColName := displayColumn(dim); valColName != "" {
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
		if col.Type == relation.String && keepCategorical(col.Dict().Len(), via.NumRows()) {
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
					if valColName := displayColumn(dim); valColName != "" {
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

// link names one first-fact walk: the rows of fact that link a row of
// entity, through entCol, to a row of via, through viaCol and via's key
// viaPK. An entity association property and every derived property over
// the same link read its one adjacency (adjacencyOf).
type link struct{ entity, fact, entCol, viaCol, via, viaPK string }

func (p *DerivedProperty) link() link {
	return link{p.Entity, p.Fact1, p.Fact1EntityCol, p.Fact1ViaCol, p.Via, p.ViaPK}
}

// link is the link an entity association's FactDim path walks.
func (p *BasicProperty) link() link {
	acc := p.Access
	return link{p.Entity, acc.Fact, acc.FactEntityCol, acc.FactDimCol, acc.Dim, acc.DimPK}
}

// linkReader resolves a link against one epoch's relations and indexes.
type linkReader struct {
	entCol, viaCol *relation.Column
	pk, viaPK      *index.IntHash
}

func (k link) reader(s source) linkReader {
	fact, ent, via := s.viewRel(k.fact), s.viewRel(k.entity), s.viewRel(k.via)
	return linkReader{
		entCol: fact.Column(k.entCol), viaCol: fact.Column(k.viaCol),
		pk: s.readHash(ent, ent.PrimaryKey), viaPK: s.readHash(via, k.viaPK),
	}
}

// link resolves first-fact row fr to the entity row and the via row it
// links; ok is false when a key is NULL or names no row.
func (l *linkReader) link(fr int) (eRow, vRow int, ok bool) {
	if l.entCol.IsNull(fr) || l.viaCol.IsNull(fr) {
		return 0, 0, false
	}
	if eRow, ok = l.pk.First(l.entCol.Int64(fr)); !ok {
		return 0, 0, false
	}
	vRow, ok = l.viaPK.First(l.viaCol.Int64(fr))
	return eRow, vRow, ok
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
	linkReader
	ids      *relation.Column
	byEntity *index.IntHash
	degree   bool
	target   pairReader
}

func (p *DerivedProperty) reader(s source) derivedReader {
	fact, ent := s.viewRel(p.Fact1), s.viewRel(p.Entity)
	d := derivedReader{
		linkReader: p.link().reader(s),
		ids:        ent.Column(ent.PrimaryKey), byEntity: s.readHash(fact, p.Fact1EntityCol),
		degree: p.Target.Type == Degree,
	}
	if !d.degree {
		d.target = (&BasicProperty{Entity: p.Via, Access: p.Target}).pairs(s)
	}
	return d
}

// add appends the codes via row vRow contributes to dst.
func (d *derivedReader) add(vRow int, dst []int32) []int32 {
	if d.degree {
		return append(dst, 0)
	}
	return d.target.appendCodes(dst, vRow)
}

// factRows returns the first-fact rows that name entity row eRow's key.
func (d *derivedReader) factRows(eRow int) index.List {
	if d.ids.IsNull(eRow) {
		return index.List{}
	}
	return d.byEntity.Rows(d.ids.Int64(eRow))
}

// buildEntityAssocProperty creates the multi-valued basic property
// holding the display values of the entities associated through fact1,
// over the link's adjacency adj.
func (a *Epoch) buildEntityAssocProperty(info *EntityInfo, fact1 string, fkToMe, fkToVia relation.ForeignKey, via *relation.Relation, adj *adjacency) *BasicProperty {
	valCol := displayColumn(via)
	if valCol == "" {
		return nil
	}
	return a.buildCategorical(info, via.Name, AccessPath{
		Type: FactDim,
		Fact: fact1, FactEntityCol: fkToMe.Column, FactDimCol: fkToVia.Column,
		Dim: via.Name, DimPK: via.PrimaryKey, DimValueCol: valCol,
	}, adj)
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
// holds (a loaded name was checked unique and free, Decode), then
// materializes every property over the adjacency of its link, fanned
// over the workers.
func (a *Epoch) deriveAll(derived []*DerivedProperty, adj adjacencies) {
	taken := make(map[string]bool, len(derived))
	for _, p := range derived {
		base := p.RelName
		for n := 2; taken[p.RelName] || a.DB.Relation(p.RelName) != nil; n++ {
			p.RelName = fmt.Sprintf("%s_%d", base, n)
		}
		taken[p.RelName] = true
	}
	// A property's tabulation passes on to the next one its worker
	// materializes: one buffer a worker, grown to the most pairs a
	// property has, in place of one a property. The channel holds one
	// slot a property, so a send never waits.
	tabs := make(chan []tabbed, len(derived))
	index.RunBounded(len(derived), a.cfg.workers(), func(i int) {
		var tab []tabbed
		select {
		case tab = <-tabs:
		default:
		}
		tabs <- a.materializeDerived(derived[i], adj[derived[i].link()], tab)
	})
}

// tabbed is one (value, strength) pair of an entity's tabulation
// (materializeDerived).
type tabbed struct{ code, count int32 }

// adjacency lists, for every row of a link's entity, the distinct via
// rows the link's fact rows link it to, in the order of the first fact
// row that links each: row e's are vias[offs[e]:offs[e+1]]. Several
// fact rows linking one pair (an actor with several roles in one movie)
// count once, matching the DISTINCT semantics of the paper's Q6 per
// (person, movie) pair.
type adjacency struct {
	offs, vias []uint32
}

func (j *adjacency) of(eRow int) []uint32 { return j.vias[j.offs[eRow]:j.offs[eRow+1]] }

// adjacencies holds the adjacency of every link one derive wave reads:
// registered (need) while the wave is planned, and computed once
// (walkLinks) before the entity-association folds and the derived
// properties read them.
type adjacencies map[link]*adjacency

// need registers link k and returns the adjacency walk fills in.
func (m adjacencies) need(k link) *adjacency {
	j := m[k]
	if j == nil {
		j = &adjacency{}
		m[k] = j
	}
	return j
}

// walkLinks computes every registered adjacency, fanned over workers.
// The links go out in one fixed order, those with the most fact rows
// first, so the workers' schedule, and how long the wave takes, is the
// same from one run to the next instead of following map iteration.
func (a *Epoch) walkLinks(m adjacencies, workers int) {
	links := slices.SortedFunc(maps.Keys(m), func(x, y link) int {
		return cmp.Or(
			cmp.Compare(a.DB.Relation(y.fact).NumRows(), a.DB.Relation(x.fact).NumRows()),
			strings.Compare(x.entity, y.entity), strings.Compare(x.fact, y.fact),
			strings.Compare(x.entCol, y.entCol), strings.Compare(x.viaCol, y.viaCol),
			strings.Compare(x.via, y.via), strings.Compare(x.viaPK, y.viaPK))
	})
	index.RunBounded(len(links), workers, func(i int) { *m[links[i]] = a.adjacencyOf(links[i]) })
}

// adjacencyOf computes the adjacency of link k in time linear in its
// fact rows, entities and via rows: the fact rows resolve once, a
// counting sort groups their via rows by entity row in fact-row order,
// and a stamp per via row — the last entity row that listed it — drops
// the repeats in place.
func (a *Epoch) adjacencyOf(k link) adjacency {
	r := k.reader(a)
	numEnt, numVia := a.DB.Relation(k.entity).NumRows(), a.DB.Relation(k.via).NumRows()
	n := r.entCol.Len()
	ents, vias := make([]int32, n), make([]uint32, n)
	offs := make([]uint32, numEnt+1)
	for fr := range n {
		eRow, vRow, ok := r.link(fr)
		if !ok {
			ents[fr] = -1
			continue
		}
		ents[fr], vias[fr] = int32(eRow), uint32(vRow)
		offs[eRow+1]++
	}
	for e := range numEnt {
		offs[e+1] += offs[e]
	}
	flat := make([]uint32, offs[numEnt])
	next := slices.Clone(offs[:numEnt])
	for fr, e := range ents {
		if e >= 0 {
			flat[next[e]] = vias[fr]
			next[e]++
		}
	}
	stamp := make([]int32, numVia)
	w := uint32(0)
	for e := range numEnt {
		lo, hi := offs[e], offs[e+1]
		offs[e] = w
		for _, v := range flat[lo:hi] {
			if stamp[v] != int32(e)+1 {
				stamp[v] = int32(e) + 1
				flat[w] = v
				w++
			}
		}
	}
	offs[numEnt] = w
	return adjacency{offs: offs, vias: flat[:w]}
}

// materializeDerived derives a property's statistics from its
// adjacency — for each entity, the count of every value over the
// contributions of its distinct via rows, the in-Go equivalent of the
// paper's Q6 CREATE TABLE ... GROUP BY — and keeps its reader, which
// answers one entity's counts from then on (AppendCounts). The build
// and the snapshot load both run it (deriveAll). The tabulation never
// leaves code space: each via row's contributions are listed once as
// source-dictionary codes, and an entity's counts are summed in a dense
// counter indexed by code. The codes are the source dictionary's, so no
// value is translated; Degree's one pseudo-code indexes a dictionary of
// its own. The pass counts each value's pairs and largest strength,
// which pick its layout (denseAt) and size its histogram; then each
// tabulated strength is written in place: a byte of the value's dense
// column, one array a value, or a pair appended to its list
// (codeStats.appendPair), so every list is in entity-row order. A chunk
// of a pair list's rows or strengths is its own allocation, so a chunk
// an insert later replaces is freed on its own instead of being pinned
// by its neighbors' array; the histograms, a few bytes a value, share
// one.
func (a *Epoch) materializeDerived(p *DerivedProperty, adj *adjacency, tab []tabbed) []tabbed {
	c := p.reader(a)
	p.walk, p.dict = c, c.target.dict
	if c.degree {
		p.dict = relation.RestoreDict([]string{p.Via})
	}
	via := a.DB.Relation(p.Via)
	offs := make([]uint32, via.NumRows()+1)
	// Most targets give a via row one code; a second fact can give more.
	codes := make([]int32, 0, via.NumRows())
	for vRow := range via.NumRows() {
		codes = c.add(vRow, codes)
		offs[vRow+1] = uint32(len(codes))
	}
	n := 0
	if len(codes) > 0 {
		n = int(slices.Max(codes)) + 1
	}
	// The one pass over the adjacency tabulates each entity's strengths
	// in a dense counter indexed by code (count, zeroed again for the
	// next entity through touched) into tab, the caller's buffer, entity
	// after entity: entity row e's (value, strength) pairs end at
	// ends[e]. A via row gives most targets one code, so the adjacency's
	// length is about what tab needs. Each value's pairs and largest
	// strength are counted on the way.
	entities := len(adj.offs) - 1
	count, touched := make([]int32, n), make([]int32, 0, n)
	tab, ends := slices.Grow(tab[:0], len(adj.vias)), make([]uint32, entities)
	pairs, top := make([]int32, n), make([]int32, n)
	for eRow := range entities {
		touched = touched[:0]
		for _, vRow := range adj.of(eRow) {
			for _, code := range codes[offs[vRow]:offs[vRow+1]] {
				if count[code] == 0 {
					touched = append(touched, code)
				}
				count[code]++
			}
		}
		for _, code := range touched {
			tab = append(tab, tabbed{code, count[code]})
			pairs[code]++
			top[code] = max(top[code], count[code])
			count[code] = 0
		}
		ends[eRow] = uint32(len(tab))
	}
	// One array holds every value's histogram, top[code] entries each.
	total := 0
	for _, m := range top {
		total += int(m)
	}
	ge, hist := make([]int32, total), make([][]int32, n)
	stats, cols := make([]codeStats, n), make([][]uint8, n)
	for code, m := range top {
		hist[code], ge = ge[:m:m], ge[m:]
		if denseAt(int(pairs[code]), entities) {
			cols[code] = make([]uint8, entities)
			stats[code].dense = true
			p.dense++
		}
	}
	at := 0
	for eRow, end := range ends {
		for _, t := range tab[at:end] {
			cs, k := &stats[t.code], int(t.count)
			hist[t.code][k-1]++
			if cs.dense {
				cols[t.code][eRow] = uint8(min(k, saturated))
				cs.noteOver(uint32(eRow), k)
			} else {
				cs.appendPair(uint32(eRow), k)
			}
		}
		at = int(end)
	}
	for code, h := range hist {
		for i := len(h) - 2; i >= 0; i-- {
			h[i] += h[i+1]
		}
		if len(h) > 0 {
			stats[code].ge = relation.ChunkedOf(h)
		}
		if stats[code].dense {
			stats[code].strengths = relation.ChunkedOf(cols[code])
		}
	}
	p.codes = relation.ChunkedOf(stats)
	p.memo = newRowSetMemo(a.selCache)
	p.schema = p.viewRows(a.Entities[p.Entity], []int32{})
	return tab
}
