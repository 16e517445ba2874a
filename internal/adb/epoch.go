package adb

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/trace"
)

// Epoch is one immutable, atomically published state of the αDB: the
// base and derived databases, per-entity semantic properties with their
// statistics, the per-epoch index view, and the per-relation row counts
// that pin the shared inverted index and dictionaries to this state.
//
// Readers (discovery, engine execution, stats, snapshot encode) load
// the current epoch once with AlphaDB.Snapshot and run wait-free
// against it: no lock is taken, no writer can stall them, and every
// answer — selectivity, row sets, query output — reflects exactly the
// state at publish time (snapshot isolation). Writers never mutate a
// published epoch; they build the next one copy-on-write (copying only
// the chunks and tails of the per-property statistics and indexes the
// batch writes into, structurally sharing everything else) and publish it
// with one pointer swap. What is derived from a property lives on the
// property: a cloned property starts with an empty row-set memo, an
// untouched one carries its memo into the next epoch (see rowSetMemo),
// so publishing has nothing to evict.
//
// Two structures are shared across epochs instead of cloned, because
// they are append-only with stable identities: the column dictionaries
// (codes never change meaning; an epoch only references codes that
// existed at its publish) and the inverted index (postings carry row
// numbers, and epoch-pinned lookups filter by the epoch's row counts).
// Both are internally synchronized for the duration of a map insert,
// never for the duration of a discovery.
type Epoch struct {
	DB       *relation.Database
	Inverted *index.Inverted
	Entities map[string]*EntityInfo

	// Indexes is this epoch's hash-index view over base and derived
	// relations: every point lookup of the online phase (dimension
	// resolution, engine predicate pushdown) is served from here.
	// Indexes are immutable once visible; cold ones build lazily.
	Indexes *index.IndexSet

	// DerivedDB holds the materialized derived relations (Fig 18's
	// "precomputed DB size" reports its footprint).
	DerivedDB *relation.Database
	// BuildTime is the offline precomputation wall time.
	BuildTime time.Duration

	cfg      Config
	selCache *SelCache
	// factIdx holds the hash indexes over fact and side tables a build
	// reads (see readHash); nil once the build is done.
	factIdx *index.IndexSet

	// seq is the epoch sequence number (0 for a fresh build/load);
	// publishedAt is when the epoch became current.
	seq         uint64
	publishedAt time.Time
	// rowCounts snapshots every base relation's row count at publish:
	// the filter that pins shared inverted-index lookups (and snapshot
	// encodes) to this epoch.
	rowCounts map[string]int

	combinedOnce sync.Once
	combined     *relation.Database
}

// Seq returns the epoch sequence number.
func (a *Epoch) Seq() uint64 { return a.seq }

// Entity returns the EntityInfo for a relation name, or nil.
func (a *Epoch) Entity(name string) *EntityInfo { return a.Entities[name] }

// Config returns the build configuration.
func (a *Epoch) Config() Config { return a.cfg }

// rowLimit bounds shared inverted-index reads to this epoch's rows.
func (a *Epoch) rowLimit(rel string) int { return a.rowCounts[rel] }

// CommonColumns resolves example values to candidate (relation, column)
// matches through the shared inverted index, pinned to this epoch: rows
// appended after the epoch was published are invisible.
func (a *Epoch) CommonColumns(values []string) []index.ColumnMatch {
	return a.Inverted.CommonColumns(values, a.rowLimit)
}

// InvertedLookup returns the epoch-pinned postings of one value.
func (a *Epoch) InvertedLookup(value string) []index.Posting {
	return a.Inverted.LookupBelow(value, a.rowLimit)
}

// snapshotRowCounts records every base relation's current row count.
func snapshotRowCounts(db *relation.Database) map[string]int {
	counts := make(map[string]int, db.NumRelations())
	for _, name := range db.RelationNames() {
		counts[name] = db.Relation(name).NumRows()
	}
	return counts
}

// AlphaDB is the abduction-ready database handle: it owns the chain of
// immutable epochs plus the write machinery that advances it.
//
// Reads are wait-free: Snapshot returns the current *Epoch via an
// atomic pointer load, and all read surfaces (Entity, CombinedDB,
// ComputeStats, Encode, and squid.System's discovery and execution
// paths) operate on one pinned epoch. Writes (InsertBatch) coordinate
// per relation: a writer locks only the write domain of the relations
// its batch touches — inserts into disjoint relations build their
// copy-on-write epochs in parallel — and the publish step combines
// concurrent writers' epochs into one chain (each publish is a single
// pointer swap; a writer that finds the current epoch moved past its
// base rebases its disjoint changes onto the newer epoch instead of
// serializing the whole apply).
type AlphaDB struct {
	cur atomic.Pointer[Epoch]

	// publishMu serializes the (cheap) epoch publish step — the
	// combiner. The expensive copy-on-write apply runs outside it,
	// guarded only by the write-domain locks below.
	publishMu sync.Mutex
	// domains maps each relation to the sorted names of its write
	// domain: the relations its inserts may read or write. writeMu maps
	// each relation to its domain's one writer lock, so writers of
	// disjoint domains never contend.
	domains map[string][]string
	writeMu map[string]*sync.Mutex

	// selCache carries the αDB-wide memo counters; cfg and BuildTime
	// are build-time constants.
	selCache *SelCache
	cfg      Config
	// BuildTime is the offline precomputation wall time.
	BuildTime time.Duration

	publishes atomic.Uint64
	combines  atomic.Uint64

	// retired / retainedBytes gauge the epoch chain's garbage: epochs
	// replaced by a publish but not yet collected (readers may still pin
	// them), and the bytes they keep alive on their own — what the
	// publishes that retired them copied. A publish raises both; a finalizer on the retired epoch
	// lowers them when the collector proves no reader holds it.
	retired       atomic.Int64
	retainedBytes atomic.Int64

	// publishHook, when set, observes every publish under publishMu —
	// after the epoch became current, in publish (= sequence) order —
	// with the rows the publish applied. It is the write-ahead log's
	// append point. Set it once, before the handle is shared.
	publishHook func(seq uint64, rows []AppliedRow)
}

// SetPublishHook installs the publish observer (the WAL append). Must
// be called before the handle is shared across goroutines — recovery
// attaches it between replay and serving.
func (a *AlphaDB) SetPublishHook(hook func(seq uint64, rows []AppliedRow)) {
	a.publishHook = hook
}

// newAlphaDB wraps a freshly built or decoded epoch into a handle.
func newAlphaDB(e *Epoch) *AlphaDB {
	a := &AlphaDB{
		selCache:  e.selCache,
		cfg:       e.cfg,
		BuildTime: e.BuildTime,
	}
	a.selCache.db = a
	if e.rowCounts == nil {
		//lint:ignore epochmutate pre-publication initialization: the epoch is not yet shared (published by cur.Store below)
		e.rowCounts = snapshotRowCounts(e.DB)
	}
	//lint:ignore epochmutate pre-publication initialization: the epoch is not yet shared (published by cur.Store below)
	e.publishedAt = time.Now()
	a.cur.Store(e)
	a.initWriteDomains(e)
	return a
}

// Snapshot returns the current epoch: one atomic load, no lock. The
// returned epoch is immutable — hold it for as long as a consistent
// view is needed (a discovery, a stats scrape, a snapshot encode);
// holding it only retains memory, it never blocks writers.
func (a *AlphaDB) Snapshot() *Epoch { return a.cur.Load() }

// Entity returns the current epoch's EntityInfo for a relation name.
// The result is pinned to that epoch: it keeps answering from the
// statistics it was fetched under, even across later inserts.
func (a *AlphaDB) Entity(name string) *EntityInfo { return a.Snapshot().Entity(name) }

// DB returns the current epoch's base database.
func (a *AlphaDB) DB() *relation.Database { return a.Snapshot().DB }

// EphemeralEntity is Epoch.EphemeralEntity on the current epoch.
func (a *AlphaDB) EphemeralEntity(name string) *EntityInfo {
	return a.Snapshot().EphemeralEntity(name)
}

// CombinedDB returns the current epoch's combined database.
func (a *AlphaDB) CombinedDB() *relation.Database { return a.Snapshot().CombinedDB() }

// SelectivityCache exposes the αDB-wide view of the per-property
// row-set memos (monitoring, benchmark and test surface).
func (a *AlphaDB) SelectivityCache() *SelCache { return a.selCache }

// Config returns the build configuration.
func (a *AlphaDB) Config() Config { return a.cfg }

// EpochStats reports the epoch chain's health: the current sequence
// number, when it was published, and the cumulative publish/combine
// counters (a combine is a publish that rebased onto an epoch another
// writer published concurrently).
type EpochStats struct {
	Seq         uint64
	PublishedAt time.Time
	Publishes   uint64
	Combines    uint64
	// Retired counts epochs replaced by a publish but not yet garbage
	// collected (readers may still pin them); RetainedBytes is what
	// those epochs keep alive on their own: the bytes the publishes
	// that retired them copied instead of sharing (chunks, index tails
	// and folds, count-column patches).
	Retired       int64
	RetainedBytes int64
}

// EpochStats returns the current epoch counters.
func (a *AlphaDB) EpochStats() EpochStats {
	e := a.Snapshot()
	return EpochStats{
		Seq:           e.seq,
		PublishedAt:   e.publishedAt,
		Publishes:     a.publishes.Load(),
		Combines:      a.combines.Load(),
		Retired:       a.retired.Load(),
		RetainedBytes: a.retainedBytes.Load(),
	}
}

// initWriteDomains precomputes each relation's write domain and writer
// lock. An insert reads and writes beyond its own relation — the
// entities a fact row feeds, a derived property's via relation and
// second fact, the facts that already name a new entity and everything
// those feed — but never past a chain of foreign keys between entity
// and fact relations: a relation's domain is its component under them.
// Everything else a write touches (dimension relations, the shared
// inverted index and dictionaries) is either never written or
// internally synchronized.
func (a *AlphaDB) initWriteDomains(e *Epoch) {
	names := e.DB.RelationNames()
	slices.Sort(names) // so every domain lists its members sorted
	a.writeMu = make(map[string]*sync.Mutex, len(names))
	a.domains = make(map[string][]string, len(names))
	root := make(map[string]string, len(names))
	find := func(n string) string {
		for root[n] != n {
			n = root[n]
		}
		return n
	}
	for _, n := range names {
		root[n] = n
		a.writeMu[n] = &sync.Mutex{}
	}
	for _, n := range names {
		for _, fk := range e.DB.Relation(n).Foreign {
			if e.DB.Kind(n) != relation.KindProperty && e.DB.Kind(fk.RefRelation) != relation.KindProperty {
				root[find(n)] = find(fk.RefRelation)
			}
		}
	}
	for _, n := range names {
		a.domains[find(n)] = append(a.domains[find(n)], n)
	}
	// A domain's members share one writer lock: its first member's.
	for _, n := range names {
		a.domains[n] = a.domains[find(n)]
		a.writeMu[n] = a.writeMu[a.domains[n][0]]
	}
}

// lockDomains acquires the writer locks of every given relation's write
// domain, in sorted order of the domains' first members (deadlock-free),
// and returns the unlock function. Unknown relation names contribute
// nothing — their inserts fail before mutating anything.
func (a *AlphaDB) lockDomains(rels []string) func() {
	var keys []string
	for _, rel := range rels {
		if d, ok := a.domains[rel]; ok {
			keys = append(keys, d[0])
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	for _, k := range keys {
		a.writeMu[k].Lock()
	}
	return func() {
		for i := len(keys) - 1; i >= 0; i-- {
			a.writeMu[keys[i]].Unlock()
		}
	}
}

// publish makes the builder's copy-on-write changes the current epoch.
// It is the epoch combiner: under publishMu (held only for the cheap
// merge, never the apply), the builder's per-relation deltas are laid
// over whatever epoch is current — the base it cloned from on the fast
// path, or a newer epoch published by a concurrent disjoint writer, in
// which case the merge combines both writers' changes (their domains
// cannot overlap, the domain locks guarantee it). One atomic
// store publishes the result; retired epochs stay valid for the
// readers still pinning them and are garbage collected when the last
// such reader drops its pointer. The whole combiner step is one
// publish span of sp (carrying the new epoch's sequence number), and
// the WAL append — the publish's only I/O — is a nested wal_append
// span counting the rows it logged.
func (a *AlphaDB) publish(eb *epochBuilder, sp trace.Span) {
	if !eb.dirty() {
		return
	}
	ps := sp.Child(trace.PhasePublish, "")
	defer ps.End()
	eb.finalize()
	a.publishMu.Lock()
	defer a.publishMu.Unlock()
	cur := a.cur.Load()
	if cur != eb.base {
		a.combines.Add(1)
	}
	entities := make(map[string]*EntityInfo, len(cur.Entities))
	for name, info := range cur.Entities {
		entities[name] = info
	}
	for name, info := range eb.entities {
		entities[name] = info
	}
	rowCounts := make(map[string]int, len(cur.rowCounts))
	for name, n := range cur.rowCounts {
		rowCounts[name] = n
	}
	for name, n := range eb.rowCounts {
		rowCounts[name] = n
	}
	next := &Epoch{
		DB:          cur.DB.CloneWith(eb.baseRels),
		Inverted:    cur.Inverted,
		Entities:    entities,
		Indexes:     eb.idx.MergeInto(cur.Indexes),
		DerivedDB:   cur.DerivedDB.CloneWith(eb.derivedRels),
		BuildTime:   cur.BuildTime,
		cfg:         cur.cfg,
		selCache:    cur.selCache,
		seq:         cur.seq + 1,
		publishedAt: time.Now(),
		rowCounts:   rowCounts,
	}
	a.cur.Store(next)
	a.publishes.Add(1)
	ps.Add(trace.CounterEpochSeq, int64(next.seq))

	// GC telemetry: cur just retired. Everything the builder did not
	// copy, cur shares with next; what it did copy — chunks and chunk
	// tables, index tails and folded bases, the patches of the derived
	// count columns — has an original of about the same size that only
	// cur still references.
	// Charge cur that, and let a finalizer credit it back once no reader
	// pins it — the gap between publishes and finalizations is exactly
	// the chain's uncollected garbage.
	est := eb.gen.Copied
	a.retired.Add(1)
	a.retainedBytes.Add(est)
	runtime.SetFinalizer(cur, func(*Epoch) {
		a.retired.Add(-1)
		a.retainedBytes.Add(-est)
	})

	if a.publishHook != nil {
		ws := ps.Child(trace.PhaseWALAppend, "")
		// Under publishMu: hook (WAL append) order equals publish order,
		// so the log IS the epoch chain's history.
		a.publishHook(next.seq, eb.applied)
		ws.Add(trace.CounterRows, int64(len(eb.applied)))
		ws.End()
	}
}
