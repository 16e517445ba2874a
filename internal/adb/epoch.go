package adb

import (
	"maps"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/trace"
)

// Epoch is one immutable, atomically published state of the αDB: the
// base database, per-entity semantic properties with their statistics,
// and the resident hash indexes.
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
// The column dictionaries are the one structure shared across epochs
// instead of cloned: they are append-only with stable codes (a code
// never changes meaning, and an epoch only references codes that
// existed at its publish). Everything else an epoch holds is its own
// or shared copy-on-write, so it answers exactly as of its publish.
type Epoch struct {
	DB       *relation.Database
	Entities map[string]*EntityInfo

	// Indexes is this epoch's resident hash indexes over base relations
	// (see index.IndexSet): the key lookups of the online phase and of
	// the writer, the joins the engine probes, and every TEXT column's
	// rows by code (entity lookup). The set is fixed once published: a
	// reader that needs an index it lacks builds a private one.
	Indexes *index.IndexSet

	// BuildTime is the offline precomputation wall time.
	BuildTime time.Duration

	cfg      Config
	selCache *SelCache

	// seq is the epoch sequence number (0 for a fresh build/load);
	// publishedAt is when the epoch became current.
	seq         uint64
	publishedAt time.Time

	// names is CombinedDB, built with the epoch.
	names *relation.Database
}

// Seq returns the epoch sequence number.
func (a *Epoch) Seq() uint64 { return a.seq }

// Entity returns the EntityInfo for a relation name, or nil.
func (a *Epoch) Entity(name string) *EntityInfo { return a.Entities[name] }

// Config returns the build configuration.
func (a *Epoch) Config() Config { return a.cfg }

// CommonColumns resolves example values to candidate (relation, column)
// matches (entity lookup, §5 of the paper): the dictionaries of this
// epoch's TEXT columns and its code indexes, this epoch's rows exactly.
func (a *Epoch) CommonColumns(values []string) []index.ColumnMatch {
	return a.Indexes.CommonColumns(a.DB, values)
}

// AlphaDB is the abduction-ready database handle: it owns the chain of
// immutable epochs plus the write machinery that advances it.
//
// Reads are wait-free: Snapshot returns the current *Epoch via an
// atomic pointer load, and all read surfaces (Entity, CombinedDB,
// ComputeStats, Encode, and squid.System's discovery and execution
// paths) operate on one pinned epoch. Writes (InsertBatch) run one at a
// time: a writer holds writeMu from loading its base epoch through the
// publish and the publish hook, so every publish extends the epoch its
// builder started from (each publish is a single pointer swap).
type AlphaDB struct {
	cur atomic.Pointer[Epoch]

	// writeMu admits one writer at a time, for the whole of its batch.
	writeMu sync.Mutex

	// selCache carries the αDB-wide memo counters; cfg and BuildTime
	// are build-time constants.
	selCache *SelCache
	cfg      Config
	// BuildTime is the offline precomputation wall time.
	BuildTime time.Duration

	publishes atomic.Uint64

	// retired / retainedBytes gauge the epoch chain's garbage: epochs
	// replaced by a publish but not yet collected (readers may still pin
	// them), and the bytes they keep alive on their own — what the
	// publishes that retired them copied. A publish raises both; a finalizer on the retired epoch
	// lowers them when the collector proves no reader holds it.
	retired       atomic.Int64
	retainedBytes atomic.Int64

	// publishHook, when set, observes every publish under writeMu —
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
	//lint:ignore epochmutate pre-publication initialization: the epoch is not yet shared (published by cur.Store below)
	e.publishedAt = time.Now()
	a.cur.Store(e)
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
// number, when it was published, and the cumulative publish counter.
type EpochStats struct {
	Seq         uint64
	PublishedAt time.Time
	Publishes   uint64
	// Combines is always 0: writers run one at a time, so no publish
	// merges another writer's epoch. It stays only for the benchmark's
	// adb.epoch_combines line (ROADMAP item 5(b) deletes both).
	Combines uint64
	// Retired counts epochs replaced by a publish but not yet garbage
	// collected (readers may still pin them); RetainedBytes is what
	// those epochs keep alive on their own: the bytes the publishes
	// that retired them copied instead of sharing (chunks, index tails
	// and folds).
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
		Retired:       a.retired.Load(),
		RetainedBytes: a.retainedBytes.Load(),
	}
}

// publish makes the builder's copy-on-write changes the current epoch.
// The caller holds writeMu, so the current epoch is still the base the
// builder cloned from: the builder's deltas are laid over it, and one
// atomic store publishes the result. Retired epochs stay valid for the
// readers still pinning them and are garbage collected when the last
// such reader drops its pointer. The step is one publish span of sp
// (carrying the new epoch's sequence number), and the WAL append — the
// publish's only I/O — is a nested wal_append span counting the rows it
// logged.
func (a *AlphaDB) publish(eb *epochBuilder, sp trace.Span) {
	if !eb.dirty() {
		return
	}
	ps := sp.Child(trace.PhasePublish, "")
	defer ps.End()
	eb.finalize()
	cur := eb.base
	if a.cur.Load() != cur {
		panic("adb: publish without the write lock")
	}
	entities := maps.Clone(cur.Entities)
	maps.Copy(entities, eb.entities)
	next := &Epoch{
		DB:          cur.DB.CloneWith(eb.baseRels),
		Entities:    entities,
		Indexes:     eb.idx.MergeInto(cur.Indexes),
		BuildTime:   cur.BuildTime,
		cfg:         cur.cfg,
		selCache:    cur.selCache,
		seq:         cur.seq + 1,
		publishedAt: time.Now(),
	}
	next.names = next.nameTable()
	a.cur.Store(next)
	a.publishes.Add(1)
	ps.Add(trace.CounterEpochSeq, int64(next.seq))

	// GC telemetry: cur just retired. Everything the builder did not
	// copy, cur shares with next; what it did copy — chunks and chunk
	// tables, index tails and folded bases — has an original of about
	// the same size that only cur still references.
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
		// Under writeMu: hook (WAL append) order equals publish order,
		// so the log IS the epoch chain's history.
		a.publishHook(next.seq, eb.applied)
		ws.Add(trace.CounterRows, int64(len(eb.applied)))
		ws.End()
	}
}
