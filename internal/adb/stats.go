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
	// retired them copied: chunks, index tails and folds, count-column
	// patches).
	EpochRetired       int64
	EpochRetainedBytes int64
}

// ResidentBytes is the resident memory of one epoch by structure, each
// figure counted from lengths and element widths rather than sampled.
// The dictionaries' maps are not attributed yet.
type ResidentBytes struct {
	// Columns and DerivedColumns are the cell storage, dictionaries
	// (with the rank tables the read path has built over them so far)
	// and update patches of the base and the derived relations.
	Columns, DerivedColumns int64
	// HashIndexBase and HashIndexTail are the flat bases and the tail
	// maps of the resident hash indexes.
	HashIndexBase, HashIndexTail int64
	// Inverted is the inverted index: its key maps and its posting
	// lists, base and tail.
	Inverted int64
	// BasicStats is the basic properties' per-row and per-value
	// statistics: the categorical code lists and posting lists (offsets,
	// codes, postings and their insert tails) and the numeric value
	// orders (a numeric property's values are its column's cells,
	// counted under Columns).
	BasicStats int64
	// DerivedPairs is the derived properties' per-value pair lists and
	// strength histograms.
	DerivedPairs int64
	// RowSetMemos is the memoized satisfying-row sets.
	RowSetMemos int64
}

// ResidentBytes attributes this epoch's memory by structure: one pass
// over index and property headers and the dictionaries, never over
// rows.
func (a *Epoch) ResidentBytes() ResidentBytes {
	r := ResidentBytes{Columns: a.DB.ByteSize(), DerivedColumns: a.DerivedDB.ByteSize(), Inverted: a.Inverted.ResidentBytes()}
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
		DBBytes:         res.Columns,
		NumRelations:    a.DB.NumRelations(),
		PrecomputedSize: res.DerivedColumns,
		Resident:        res,
		BuildTime:       a.BuildTime,
		NumDerivedRels:  a.DerivedDB.NumRelations(),
		EpochSeq:        a.seq,
		EpochAgeSec:     time.Since(a.publishedAt).Seconds(),
	}
	for _, n := range a.DerivedDB.RelationNames() {
		s.DerivedRows += a.DerivedDB.Relation(n).NumRows()
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
	}
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
	fmt.Fprintf(&b, "  Inverted index       %s\n", humanBytes(s.Resident.Inverted))
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
