package adb

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stats summarizes an αDB for the Fig 18 dataset-statistics table.
type Stats struct {
	Name            string
	DBBytes         int64
	NumRelations    int
	PrecomputedSize int64
	BuildTime       time.Duration
	// RelationCards lists (relation, cardinality) for the largest base
	// relations, mirroring the "Rel. Card." rows of Fig 18.
	RelationCards  []RelCard
	NumDerivedRels int
	DerivedRows    int
	NumBasicProps  int
	NumDerivedProp int

	// Online-pipeline surfaces: the epoch's resident hash indexes and
	// the selectivity-cache health counters.
	NumHashIndexes  int
	SelCacheEntries int
	SelCacheHits    uint64
	SelCacheMisses  uint64
	// Cached-row-set memory: resident bytes under the adaptive
	// sparse/dense representation, and what the same sets would cost as
	// dense-only bitsets (the scale track's memory baseline).
	SelCacheRowSetBytes int64
	SelCacheDenseBytes  int64
	// Form composition of the cached sets (diagnoses a savings ratio
	// near 1.0x: many dense entries mean the cached filters genuinely
	// are dense, not that adaptation failed).
	SelCacheSparseSets int
	SelCacheDenseSets  int

	// Resident attributes the epoch's memory to the structures that
	// can be counted exactly (squid_resident_bytes on /metrics).
	Resident ResidentBytes

	// Epoch-chain health: the pinned epoch's sequence number and age,
	// plus the cumulative publish counter.
	EpochSeq       uint64
	EpochAgeSec    float64
	EpochPublishes uint64

	// Epoch-chain GC telemetry: retired epochs not yet collected and
	// the bytes they keep alive on their own (what the publishes that
	// retired them copied: chunks, index tails and folds).
	EpochRetired       int64
	EpochRetainedBytes int64
}

// ResidentBytes is the resident memory of one epoch by structure, each
// figure counted from lengths and element widths rather than sampled.
type ResidentBytes struct {
	// Columns is the cell storage of the base relations: cells and NULL
	// bitmaps.
	Columns int64
	// Dicts is the dictionaries of the base relations' TEXT columns:
	// their values, and the rank tables and normal indexes built over
	// them so far (relation.Dict.ByteSize).
	Dicts int64
	// HashIndexBase and HashIndexTail are the bases (key maps, offsets,
	// runs and bitmaps) and the tails of the resident hash indexes, the
	// TEXT columns' code indexes included.
	HashIndexBase, HashIndexTail int64
	// BasicStats is the basic properties' per-value statistics: the
	// categorical posting lists (offsets, runs, bitmaps and their
	// insert tails) and the numeric value orders. An entity's own
	// values are its relations' cells, counted under Columns: a
	// categorical property walks its access path to them, a numeric one
	// reads its column.
	BasicStats int64
	// DerivedPairs is the derived properties' per-value pair lists and
	// strength histograms: the derived relations, which the engine reads
	// as views over them.
	DerivedPairs int64
	// RowSetMemos is the memoized satisfying-row sets.
	RowSetMemos int64
}

// ResidentBytes attributes this epoch's memory by structure: one pass
// over index and property headers and the dictionaries, never over
// rows.
func (a *Epoch) ResidentBytes() ResidentBytes {
	var r ResidentBytes
	for _, name := range a.DB.RelationNames() {
		for _, col := range a.DB.Relation(name).Columns() {
			r.Columns += col.CellBytes()
			if d := col.Dict(); d != nil {
				r.Dicts += d.ByteSize()
			}
		}
	}
	r.HashIndexBase, r.HashIndexTail = a.Indexes.ResidentBytes()
	for _, e := range a.Entities {
		for _, p := range e.Basic {
			r.BasicStats += p.statsBytes()
		}
		for _, p := range e.Derived {
			r.DerivedPairs += p.PairBytes()
		}
	}
	r.RowSetMemos, _ = a.selCache.RowSetBytes()
	return r
}

// RelCard pairs a relation name with its row count.
type RelCard struct {
	Relation string
	Rows     int
}

// ComputeStats gathers the Fig 18 statistics from one pinned epoch: a
// single atomic snapshot, no lock, every field from the same state —
// safe and wait-free concurrently with inserts.
func (a *AlphaDB) ComputeStats() Stats {
	ep := a.Snapshot()
	s := ep.ComputeStats()
	s.EpochPublishes = a.publishes.Load()
	s.EpochRetired = a.retired.Load()
	s.EpochRetainedBytes = a.retainedBytes.Load()
	return s
}

// ComputeStats gathers the Fig 18 statistics of this epoch. The
// publish counters live on the handle (AlphaDB.ComputeStats
// fills them); here they stay zero.
func (a *Epoch) ComputeStats() Stats {
	res := a.ResidentBytes()
	s := Stats{
		Name:            a.DB.Name,
		DBBytes:         res.Columns + res.Dicts,
		NumRelations:    a.DB.NumRelations(),
		PrecomputedSize: res.DerivedPairs,
		Resident:        res,
		BuildTime:       a.BuildTime,
		EpochSeq:        a.seq,
		EpochAgeSec:     time.Since(a.publishedAt).Seconds(),
	}
	for _, n := range a.DB.RelationNames() {
		s.RelationCards = append(s.RelationCards, RelCard{n, a.DB.Relation(n).NumRows()})
	}
	sort.Slice(s.RelationCards, func(i, j int) bool { return s.RelationCards[i].Rows > s.RelationCards[j].Rows })
	if len(s.RelationCards) > 3 {
		s.RelationCards = s.RelationCards[:3]
	}
	for _, e := range a.Entities {
		s.NumBasicProps += len(e.Basic)
		s.NumDerivedProp += len(e.Derived)
		for _, p := range e.Derived {
			for _, cs := range p.codes.All() {
				s.DerivedRows += cs.pairs()
			}
		}
	}
	s.NumDerivedRels = s.NumDerivedProp
	s.NumHashIndexes = a.Indexes.NumIndexes()
	s.SelCacheEntries = a.selCache.Len()
	s.SelCacheHits, s.SelCacheMisses = a.selCache.Metrics()
	s.SelCacheRowSetBytes, s.SelCacheDenseBytes = a.selCache.RowSetBytes()
	s.SelCacheSparseSets, s.SelCacheDenseSets = a.selCache.RowSetForms()
	return s
}

// String renders the stats block in the layout of Fig 18.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Name)
	fmt.Fprintf(&b, "  DB size              %s\n", humanBytes(s.DBBytes))
	fmt.Fprintf(&b, "  #Relations           %d\n", s.NumRelations)
	fmt.Fprintf(&b, "  Precomputed DB size  %s (%d derived relations, %d rows)\n",
		humanBytes(s.PrecomputedSize), s.NumDerivedRels, s.DerivedRows)
	fmt.Fprintf(&b, "  Precomputation time  %v\n", s.BuildTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "  Properties           %d basic, %d derived\n", s.NumBasicProps, s.NumDerivedProp)
	fmt.Fprintf(&b, "  Hash indexes         %d, %s resident (%s of it insert tails)\n", s.NumHashIndexes,
		humanBytes(s.Resident.HashIndexBase+s.Resident.HashIndexTail), humanBytes(s.Resident.HashIndexTail))
	fmt.Fprintf(&b, "  Basic statistics     %s\n", humanBytes(s.Resident.BasicStats))
	fmt.Fprintf(&b, "  Derived pair lists   %s\n", humanBytes(s.Resident.DerivedPairs))
	fmt.Fprintf(&b, "  Selectivity cache    %d entries (%d hits, %d misses)\n",
		s.SelCacheEntries, s.SelCacheHits, s.SelCacheMisses)
	fmt.Fprintf(&b, "  Cached row sets      %s resident (dense-only would be %s; %d sparse, %d dense)\n",
		humanBytes(s.SelCacheRowSetBytes), humanBytes(s.SelCacheDenseBytes),
		s.SelCacheSparseSets, s.SelCacheDenseSets)
	for _, rc := range s.RelationCards {
		fmt.Fprintf(&b, "  Rel. Card.           %-14s %d\n", rc.Relation, rc.Rows)
	}
	return b.String()
}

func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
