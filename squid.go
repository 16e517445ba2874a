// Package squid is a Go implementation of SQuID — semantic
// similarity-aware query intent discovery (Fariha & Meliou, VLDB 2019).
//
// SQuID answers query-by-example requests in an open-world setting: given
// a handful of example values (say, three actor names), it finds the
// entities they denote, discovers the semantic properties they share —
// explicit ones such as gender=Male, and implicit ones such as "appeared
// in at least 40 Comedy movies" — and abduces the select-project-join
// query (with optional group-by aggregation) that is the most probable
// explanation of the examples.
//
// The workflow has two phases, mirroring the paper's architecture
// (Fig 4):
//
//   - Offline, Build constructs an abduction-ready database (αDB) from a
//     Database whose relations are annotated as entities and properties:
//     it discovers fact tables from foreign keys, materializes derived
//     relations such as persontogenre(person_id, genre_id, count), and
//     precomputes selectivity statistics and the indexes entity lookup
//     reads: a code index of every TEXT column and its dictionary's
//     normal index.
//
//   - Online, DiscoverContext maps examples to entities, derives their
//     semantic contexts, and runs the linear-time abduction algorithm
//     (Algorithm 1, optimal per Theorem 1) to select the filters of the
//     intended query.
//
// # Online pipeline architecture
//
// The online phase is index-backed, cache-aware, and concurrency-safe,
// so discovery cost tracks the number of candidate filters rather than
// the data size (the paper's Fig 16b scalability claim):
//
//   - An IndexSet (internal/index) is each epoch's resident hash
//     indexes: every non-fact relation's integer key and every fact
//     foreign key, built before anything reads them and fixed once
//     visible; an insert clones the indexes it writes
//     into and the next epoch's set shares the rest. Dimension lookups,
//     αDB maintenance, and the engine's joins and point predicates all
//     read it.
//   - Each property answers selectivity and satisfying-row questions
//     from precomputed postings and a value-sorted row order, and
//     memoizes the row sets it computes, shared across discoveries.
//     The property owns its memo: an insert republishes only the
//     properties whose statistics it shifted, as clones with empty
//     memos, so sustained ingest into one relation leaves every other
//     property's memo warm, and a retired property's memo is collected
//     with it (internal/adb.SelCache is the αDB-wide view: hit/miss
//     counters plus inspection of the current epoch's memos).
//   - Filter row sets intersect as adaptive sparse/dense row sets,
//     seeded by the most selective filter.
//   - A discovery runs serially on its caller's goroutine; DiscoverBatch
//     runs up to Params.Workers example sets at once over the shared
//     αDB. Writes (InsertBatchContext) are
//     safe to run concurrently with discovery and are wait-free for
//     readers: the αDB is a chain of immutable, atomically published
//     epochs — a discovery pins the current epoch with one pointer load
//     and can never be stalled by a writer, while writers build the next
//     epoch copy-on-write and publish it with one pointer swap. Writers
//     run one at a time behind one lock; no external coordination is
//     required anywhere.
//
// Benchmarks: `go run ./benchmark -workload <name>` is the benchmark of
// record (BENCHMARK.json is its contract, benchmark/README.md its
// manual). `go run ./cmd/squid-bench -exp all` regenerates the paper's
// tables, and `go test -bench=.` runs the same experiments at reduced
// scale.
//
// A minimal session:
//
//	db := squid.NewDatabase("cs_academics")
//	... // add relations, mark entities/properties
//	sys, err := squid.Build(db, squid.DefaultBuildConfig())
//	disc, err := sys.DiscoverContext(ctx, []string{"Dan Suciu", "Sam Madden"})
//	fmt.Println(disc.SQL)       // SPJ query over the αDB
//	fmt.Println(disc.Original)  // equivalent SPJAI query over the schema
package squid

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/disambig"
	"squid/internal/engine"
	"squid/internal/index"
	"squid/internal/relation"
	"squid/internal/snapshot"
	"squid/internal/sqlgen"
	"squid/internal/trace"
	"squid/internal/wal"
)

// Typed sentinel errors of the online phase, matched with errors.Is.
var (
	// ErrNoExamples reports that DiscoverContext was called with no
	// examples.
	ErrNoExamples = abduction.ErrNoExamples
	// ErrNoEntities reports that no entity attribute contains every
	// example value, so no query intent can be abduced.
	ErrNoEntities = abduction.ErrNoEntities
	// ErrWALSync reports that an insert was applied in memory but its
	// write-ahead-log durability barrier failed (fsync or append error).
	// The in-memory state is consistent and readable, but the rows are
	// NOT guaranteed durable, and the log refuses all further appends
	// until the system is rebooted — callers must treat the write as
	// unacknowledged and the system as read-only.
	ErrWALSync = errors.New("squid: wal durability barrier failed")
)

// Re-exported schema-building types: a Database is a set of Relations
// with primary/foreign keys, plus entity/property annotations.
type (
	// Database is a named collection of relations plus administrator
	// metadata (which relations hold entities and which hold
	// properties).
	Database = relation.Database
	// Relation is an in-memory table with typed columns.
	Relation = relation.Relation
	// Column is one typed column of a relation.
	Column = relation.Column
	// Value is a dynamically typed cell value (int, float, string, or
	// NULL).
	Value = relation.Value
	// ColType enumerates column storage types.
	ColType = relation.ColType
	// Params are SQuID's tuning parameters (paper Fig 21).
	Params = abduction.Params
	// BuildConfig tunes αDB construction: MaxFactDepth, how many fact
	// tables a derived property walks (1 or 2, paper §5; 0 means 2,
	// stored in a snapshot), and Workers, the build's goroutines (0
	// means GOMAXPROCS; a setting of the building process, not stored).
	BuildConfig = adb.Config
	// Stats summarizes an αDB (Fig 18 statistics).
	Stats = adb.Stats
	// ResidentBytes attributes an αDB's memory by structure.
	ResidentBytes = adb.ResidentBytes
	// Filter is a semantic property filter of the abduced query.
	Filter = abduction.Filter
	// FilterDecision records the per-filter posterior computation.
	FilterDecision = abduction.FilterDecision
	// Query is an executable logical query plan.
	Query = engine.Query
	// ExecResult holds executed query output.
	ExecResult = engine.Result
)

// Column type constants.
const (
	Int    = relation.Int
	Float  = relation.Float
	String = relation.String
)

// Value constructors and schema helpers, re-exported.
var (
	// NewDatabase creates an empty database.
	NewDatabase = relation.NewDatabase
	// NewRelation creates a relation with the given columns.
	NewRelation = relation.New
	// Col declares a column (name, type) for NewRelation.
	Col = relation.Col
	// IntVal wraps an int64 as a Value.
	IntVal = relation.IntVal
	// FloatVal wraps a float64 as a Value.
	FloatVal = relation.FloatVal
	// StringVal wraps a string as a Value.
	StringVal = relation.StringVal
	// Null is the NULL value.
	Null = relation.Null
	// DefaultParams returns the paper's default parameters (Fig 21).
	DefaultParams = abduction.DefaultParams
	// QREParams returns the optimistic preset for query reverse
	// engineering (§7.5).
	QREParams = abduction.QREParams
	// DefaultBuildConfig returns the default αDB build configuration.
	DefaultBuildConfig = adb.DefaultConfig
	// LoadCSV reads CSV data into a new Relation (header row required).
	LoadCSV = relation.LoadCSV
)

// CSVColumn declares one column of a CSV import.
type CSVColumn = relation.CSVColumn

// System is an abduction-ready SQuID instance over one database.
//
// Discovery and ingest are safe for concurrent use, and readers are
// wait-free. The αDB behind a System is a chain of immutable epochs
// published through an atomic pointer: every read surface
// (DiscoverContext, DiscoverBatch, ExecuteContext, Stats, Save) pins the
// current epoch with one pointer load and runs to completion against
// that consistent state — no lock, so a writer can never stall a
// discovery mid-flight and a long discovery never stalls a writer.
// Writes (InsertBatchContext) build the next epoch copy-on-write: they
// clone only the relations, property statistics, and index shards the
// batch touches, share everything else structurally with the previous
// epoch, and publish with one pointer swap. Writers run one at a time,
// each publish extending the epoch the last one made, so a discovery in
// flight when an insert lands answers from the pre-insert epoch
// (snapshot isolation) and the next one sees the new rows.
//
// Epoch lifecycle and memory: a retired epoch stays reachable only
// through the readers still pinning it (and through whatever its
// successor shares structurally); when the last such reader finishes,
// the epoch's private clones are garbage collected. The steady-state
// overhead of sustained ingest is therefore bounded by the number of
// discoveries in flight, not by write volume.
//
// One surface stays outside the epoch protocol: the configuration
// setter (SetParams) must be called before the
// System is shared across goroutines. A returned Discovery (and its
// Filters) is permanently pinned to the epoch it ran against —
// introspecting it after later inserts keeps answering from its own
// epoch's statistics.
type System struct {
	alpha  *adb.AlphaDB
	params Params

	// wal, when attached, receives every published epoch's row deltas
	// (appended under the publish lock, so log order is publish order)
	// and provides the durability barrier the insert paths wait on.
	// Set via AttachWAL/RecoverWAL before the System is shared.
	wal *wal.Log

	// traces is the fixed-size lock-free ring of finished request
	// traces (lazily created; see Traces). Recording into it is
	// wait-free and never backpressures the serving path.
	tracesOnce sync.Once
	traces     *trace.Ring

	// execBlocks counts executed SPJ blocks by how much of each the
	// αDB's row sets answered (ExecuteBlockMetrics).
	execBlocks [3]atomic.Uint64
}

// traceRingSize is how many finished request traces the System retains
// for GET /debug/traces: enough recent history to diagnose a latency
// spike, small enough that the ring's footprint is negligible.
const traceRingSize = 128

// Traces returns the System's trace ring: the store of the most recent
// finished request traces. The serving layer publishes every traced
// request's spans here (and the slow-query view reads from it); library
// users can Put recorder output of their own. Lazily created, safe for
// concurrent use.
func (s *System) Traces() *trace.Ring {
	s.tracesOnce.Do(func() { s.traces = trace.NewRing(traceRingSize) })
	return s.traces
}

// Build runs the offline phase: it constructs the abduction-ready
// database for db (precomputing derived relations, statistics, and the
// hash, code and normal indexes) and returns a System configured with
// DefaultParams. It refuses a database that breaks the schema rule,
// which Load holds a snapshot's database to as well: every foreign key
// is an INTEGER column referencing an INTEGER column, and every entity
// and dimension relation has an INTEGER primary key holding each row's
// key once, none NULL.
func Build(db *Database, cfg BuildConfig) (*System, error) {
	alpha, err := adb.Build(db, cfg)
	if err != nil {
		return nil, fmt.Errorf("squid: offline phase failed: %w", err)
	}
	return &System{alpha: alpha, params: DefaultParams()}, nil
}

// ErrSnapshotVersion reports a snapshot whose format version this build
// cannot read; rebuild from the source database and save again.
var ErrSnapshotVersion = snapshot.ErrVersion

// Save persists the system — the base database with its dictionaries,
// the property descriptors with their per-entity statistics, and the
// discovery parameters — to the versioned binary snapshot format
// (internal/snapshot), closed by a CRC32 trailer. Each fact is stored
// once and nothing derived is: Load derives the derived properties'
// pair lists and every index again, so a warm boot is one sequential read plus the
// build's derivation pass instead of the full precomputation.
func (s *System) Save(w io.Writer) error {
	sw := snapshot.NewWriter(w)
	sw.Header()
	writeParams(sw, s.params)
	s.alpha.Encode(sw)
	if err := sw.Flush(); err != nil {
		return fmt.Errorf("squid: save snapshot: %w", err)
	}
	return nil
}

// Load restores a System from a snapshot written by Save, rebuilding
// the derived properties and every index with the functions Build uses.
// The restored system is fully operational: discovery answers are
// identical to the saved system's, and incremental inserts
// (InsertBatchContext) maintain it exactly like a freshly built one. The
// stream
// is untrusted: damage returns an error (a flipped bit or a cut fails
// the checksum), a version mismatch one matching ErrSnapshotVersion.
func Load(r io.Reader) (*System, error) {
	sr := snapshot.NewReader(r)
	sr.Header()
	params := readParams(sr)
	if err := sr.Err(); err != nil {
		return nil, fmt.Errorf("squid: load snapshot: %w", err)
	}
	alpha, err := adb.Decode(sr)
	if err != nil {
		return nil, fmt.Errorf("squid: load snapshot: %w", err)
	}
	return &System{alpha: alpha, params: params}, nil
}

// writeParams persists the abduction-model parameters. Params.Workers
// is deliberately omitted: it is a runtime knob of the serving machine,
// not part of the model, so a loaded system starts at the default
// (GOMAXPROCS) and the snapshot format stays unchanged.
func writeParams(w *snapshot.Writer, p Params) {
	w.Float(p.Rho)
	w.Float(p.Gamma)
	w.Float(p.Eta)
	w.Int(p.TauA)
	w.Float(p.TauS)
	w.Bool(p.DisableOutlier)
	w.Float(p.OutlierK)
	w.Bool(p.NormalizeAssociation)
	w.Float(p.TauANorm)
	w.Int(p.MaxDisjunction)
}

// readParams reads what writeParams wrote and rejects what no model
// holds: one non-finite float or a ρ outside [0, 1] makes every include
// score meaningless, so each discovery would silently select no filter.
func readParams(r *snapshot.Reader) Params {
	p := Params{
		Rho:                  r.Float(),
		Gamma:                r.Float(),
		Eta:                  r.Float(),
		TauA:                 r.Int(),
		TauS:                 r.Float(),
		DisableOutlier:       r.Bool(),
		OutlierK:             r.Float(),
		NormalizeAssociation: r.Bool(),
		TauANorm:             r.Float(),
		MaxDisjunction:       r.Int(),
	}
	for _, f := range []float64{p.Rho, p.Gamma, p.Eta, p.TauS, p.OutlierK, p.TauANorm} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			r.Fail("non-finite parameter %v", f)
		}
	}
	if p.Rho < 0 || p.Rho > 1 {
		r.Fail("base prior ρ = %v outside [0, 1]", p.Rho)
	}
	if p.TauA < 0 || p.MaxDisjunction < 0 {
		r.Fail("negative τa %d or MaxDisjunction %d", p.TauA, p.MaxDisjunction)
	}
	return p
}

// SetParams replaces the discovery parameters (see Params). Not
// synchronized: call before sharing the System across goroutines.
func (s *System) SetParams(p Params) { s.params = p }

// Params returns the current discovery parameters.
func (s *System) Params() Params { return s.params }

// AlphaDB exposes the underlying abduction-ready database for advanced
// use (experiment harnesses, statistics).
func (s *System) AlphaDB() *adb.AlphaDB { return s.alpha }

// Stats returns the Fig 18 summary of the αDB.
func (s *System) Stats() Stats { return s.alpha.ComputeStats() }

// CacheMetrics returns the selectivity-cache health counters (hits,
// misses, live entries) without computing the full Stats block: no
// byte-size scans, so a high-frequency metrics scrape stays cheap.
func (s *System) CacheMetrics() (hits, misses uint64, entries int) {
	c := s.alpha.SelectivityCache()
	hits, misses = c.Metrics()
	return hits, misses, c.Len()
}

// EpochMetrics reports the αDB epoch chain's health for monitoring:
// the current epoch's sequence number, its age (time since the last
// publish), and the cumulative publish counter. One atomic load; safe
// at any scrape frequency.
func (s *System) EpochMetrics() (seq uint64, age time.Duration, publishes uint64) {
	es := s.alpha.EpochStats()
	return es.Seq, time.Since(es.PublishedAt), es.Publishes
}

// EpochGCMetrics reports the epoch chain's garbage-collection health:
// how many retired epochs the runtime has not yet collected, and the
// estimated bytes of replaced relation versions they pin. A steadily
// growing retired count under sustained ingest means readers (or leaked
// Discovery values) are pinning old epochs. Two atomic loads; safe at
// any scrape frequency.
func (s *System) EpochGCMetrics() (retired, retainedBytes int64) {
	es := s.alpha.EpochStats()
	return es.Retired, es.RetainedBytes
}

// ResidentBytes attributes the current epoch's memory by structure
// (columns, hash indexes, basic statistics, derived pair lists, row-set
// memos), each counted from lengths and element widths. One pass over
// index and property headers and the dictionaries — cheaper than Stats,
// never proportional to the rows.
func (s *System) ResidentBytes() ResidentBytes { return s.alpha.Snapshot().ResidentBytes() }

// AttachWAL connects a write-ahead log to the system: from now on every
// published epoch's row deltas are appended to l (in publish order),
// and the insert paths run l's durability barrier before acknowledging.
// Call before the System is shared across goroutines; for a system with
// prior log history use RecoverWAL instead, which replays first and
// then attaches.
//
// Append errors are deliberately not surfaced here: the log records
// them stickily and the next durability barrier (or any later append)
// reports them, so an insert is never acknowledged past a failed
// append.
func (s *System) AttachWAL(l *wal.Log) {
	s.wal = l
	s.alpha.SetPublishHook(func(seq uint64, rows []adb.AppliedRow) {
		if len(rows) == 0 {
			return
		}
		wrows := make([]wal.Row, len(rows))
		for i, r := range rows {
			wrows[i] = wal.Row{Rel: r.Rel, Vals: r.Vals}
		}
		_ = l.Append(seq, wrows) // sticky: surfaces at the next barrier
	})
}

// WAL returns the attached write-ahead log, or nil if the system runs
// without one.
func (s *System) WAL() *wal.Log { return s.wal }

// WALRecovery summarizes what RecoverWAL did.
type WALRecovery struct {
	// Replayed is the number of log records applied (records at or
	// below the snapshot's epoch sequence are skipped, not counted).
	Replayed int
	// TruncatedBytes is the size of the torn tail discarded from the
	// live segment, 0 for a clean shutdown.
	TruncatedBytes int64
	// LastSeq is the epoch sequence after replay.
	LastSeq uint64
}

// RecoverWAL opens (or creates) the write-ahead log at path, replays
// every record newer than the system's current epoch onto it, and
// attaches the log so subsequent inserts are logged and fenced by its
// durability barrier. It is the boot-time counterpart of AttachWAL:
//
//	sys, _ := squid.Load(f)                  // snapshot at epoch N
//	info, err := sys.RecoverWAL(path, opts)  // replays records N+1..M
//
// A torn tail (crash mid-append) is truncated at the first bad frame
// and reported in TruncatedBytes. A gap in the record sequence — the
// log starts past the snapshot, or skips a sequence number — means
// acknowledged writes are missing and is a hard error: recovery
// refuses to silently lose data.
func (s *System) RecoverWAL(path string, opts wal.Options) (WALRecovery, error) {
	l, res, err := wal.Open(path, opts)
	if err != nil {
		return WALRecovery{}, fmt.Errorf("squid: open wal: %w", err)
	}
	base := s.alpha.EpochStats().Seq
	info := WALRecovery{TruncatedBytes: res.TruncatedBytes, LastSeq: base}
	for _, rec := range res.Records {
		if rec.Seq <= base {
			continue
		}
		cur := s.alpha.EpochStats().Seq
		if rec.Seq != cur+1 {
			l.Close()
			return info, fmt.Errorf("squid: wal replay: log continues at seq %d but state is at seq %d: acknowledged records are missing", rec.Seq, cur)
		}
		ops := make([]InsertOp, len(rec.Rows))
		for i, r := range rec.Rows {
			ops[i] = InsertOp{Rel: r.Rel, Vals: r.Vals}
		}
		// One InsertBatch publishes exactly one epoch, so the replayed
		// chain reproduces the logged sequence numbers exactly.
		if err := s.alpha.InsertBatch(ops, trace.Span{}); err != nil {
			l.Close()
			return info, fmt.Errorf("squid: wal replay: record seq %d: %w", rec.Seq, err)
		}
		info.Replayed++
		info.LastSeq = rec.Seq
	}
	// Attach only after replay: replayed publishes must not re-append
	// the records they came from.
	s.AttachWAL(l)
	return info, nil
}

// walBarrier fences an acknowledged insert on the log's durability
// policy. Only reached after the insert succeeded: the epoch (and its
// log append) exist; the barrier decides whether to wait for fsync.
func (s *System) walBarrier() error {
	if s.wal == nil {
		return nil
	}
	if err := s.wal.Barrier(); err != nil {
		return fmt.Errorf("%w: %v", ErrWALSync, err)
	}
	return nil
}

// Discovery is the result of query intent discovery: the selected
// filters, both SQL renderings, and the query output.
type Discovery struct {
	// Entity and Attribute identify the base query Q* (e.g. person,
	// name).
	Entity    string
	Attribute string
	// SQL is the abduced query over the αDB (paper Q5 form).
	SQL string
	// Original is the equivalent query over the original schema with
	// GROUP BY/HAVING for derived filters (paper Q4 form).
	Original string
	// Filters are the selected semantic property filters ϕ.
	Filters []*Filter
	// Decisions hold the full per-filter posterior computation over
	// the candidate set Φ, for introspection.
	Decisions []FilterDecision
	// Output is the result of the abduced query: the projected
	// attribute values, sorted.
	Output []string

	result *abduction.Result
}

// DiscoverContext runs the online phase on the given example values
// with entity disambiguation enabled (§6.1.1) and returns the
// highest-scoring discovery across candidate base queries. ctx.Err() is
// consulted inside the abduction itself — between candidate base
// queries and between candidate-filter evaluations — so canceling the
// context (or hitting its deadline) makes even one long discovery return
// promptly. The returned error wraps ctx's error and matches it with
// errors.Is. Writers are never blocked behind abandoned work — readers
// hold no lock at all.
func (s *System) DiscoverContext(ctx context.Context, examples []string) (*Discovery, error) {
	// Pin one epoch across discovery and result materialization (the
	// output values and the SQL text read relation columns): the whole
	// read path — example resolution, statistics, output rows — answers
	// from this immutable state, wait-free.
	ep := s.alpha.Snapshot()
	// A traced discovery records which epoch it pinned: latency
	// attribution needs to know what state the request ran against.
	trace.SpanFrom(ctx).Add(trace.CounterEpochSeq, int64(ep.Seq()))
	results, err := abduction.DiscoverCtx(ctx, ep, examples, s.params, disambig.Resolve)
	if err != nil {
		return nil, fmt.Errorf("squid: %w", err)
	}
	res := results[0]
	return &Discovery{
		Entity:    res.Base.Entity,
		Attribute: res.Base.Attr,
		SQL:       sqlgen.AlphaSQL(res),
		Original:  sqlgen.OriginalSQL(res),
		Filters:   res.Filters,
		Decisions: res.Decisions,
		Output:    res.OutputValues(),
		result:    res,
	}, nil
}

// InsertOp describes one row of an InsertBatchContext: the target
// relation (entity or fact, dispatched automatically) and its values.
type InsertOp = adb.InsertOp

// InsertBatchContext appends many rows — entity and fact rows may be
// mixed — into one copy-on-write epoch (the §9 dynamic-dataset
// extension), amortizing the structure clones and the publish over the
// whole batch; concurrent discoveries are never blocked and observe the
// batch atomically. Only the properties the rows shift are cloned
// (their row-set memos start empty); every other property keeps its
// memo. Batches run one at a time; the WAL durability barrier runs
// after the write lock is released, so concurrent batches still share
// a group-commit fsync. Rows apply in order; on the first failure the
// batch stops, already-applied rows stay (and publish), and the error
// reports the failing row's index. A partially applied batch skips the
// WAL durability barrier
// (the caller was told the batch failed); its surviving rows are logged
// and ride along with the next acknowledged write's barrier or the
// background flush.
//
// When ctx carries a trace span (trace.NewContext), the lock wait, the
// copy-on-write apply, the epoch publish with its WAL append, and the
// WAL durability barrier each record a typed child span. ctx is used
// only for the span — an insert batch is not abortable mid-apply
// (append-only maintenance has no rollback), so cancellation is not
// consulted.
func (s *System) InsertBatchContext(ctx context.Context, ops []InsertOp) error {
	sp := trace.SpanFrom(ctx)
	if err := s.alpha.InsertBatch(ops, sp); err != nil {
		return err
	}
	bs := sp.Child(trace.PhaseWALBarrier, "")
	err := s.walBarrier()
	bs.End()
	return err
}

// DiscoverBatch runs the online phase for many independent example sets
// concurrently over the shared αDB: up to Params.Workers sets (default
// GOMAXPROCS) are discovered at once, each serially on its own
// goroutine, and similar intents reuse each other's memoized
// selectivity row sets.
// Inserts may run concurrently; each set pins the epoch current when it
// starts (sets started after an insert publishes see its rows).
//
// Both slices are parallel to exampleSets: each set's discovery, or nil
// and its error (errors.Is matches the sentinels, e.g. ErrNoEntities).
// When ctx is canceled, sets not yet started skip their discovery,
// in-flight sets abort at their next cancellation check (see
// DiscoverContext), and both report ctx's bare error; sets that
// finished before the cancellation keep their results.
func (s *System) DiscoverBatch(ctx context.Context, exampleSets [][]string) ([]*Discovery, []error) {
	out := make([]*Discovery, len(exampleSets))
	errs := make([]error, len(exampleSets))
	workers := s.params.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	index.RunBounded(len(exampleSets), workers, func(i int) {
		if errs[i] = ctx.Err(); errs[i] != nil {
			return
		}
		out[i], errs[i] = s.DiscoverContext(ctx, exampleSets[i])
		if cerr := ctx.Err(); cerr != nil && errors.Is(errs[i], cerr) {
			errs[i] = cerr // one cancellation shape, started or not
		}
	})
	return out, errs
}

// Explain renders the full abduction reasoning of the discovery as a
// deterministic text block: the base query, both SQL forms, and every
// candidate filter's Algorithm 1 decision (selectivity, include/exclude
// scores, chosen or not). It is the introspection surface of cmd/squid's
// -show-candidates flag, and snapshot tests assert it is byte-identical
// across a Save/Load round trip.
func (d *Discovery) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "base query: %s.%s\n", d.Entity, d.Attribute)
	fmt.Fprintf(&b, "-- abduced query (aDB form):\n%s\n", d.SQL)
	fmt.Fprintf(&b, "-- equivalent query (original schema):\n%s\n", d.Original)
	fmt.Fprintf(&b, "-- candidate filters (Algorithm 1 decisions):\n")
	for _, dec := range d.Decisions {
		mark := " "
		if dec.Included {
			mark = "*"
		}
		fmt.Fprintf(&b, " %s %-50s psi=%.6f include=%.6g exclude=%.6g\n",
			mark, dec.Filter.String(), dec.Selectivity, dec.Include, dec.Exclude)
	}
	fmt.Fprintf(&b, "-- output: %d rows\n", len(d.Output))
	return b.String()
}

// PredicateCount reports the number of join and selection predicates of
// the abduced query (the Figs 14/15 metric).
func (d *Discovery) PredicateCount() (joins, selections int) {
	return sqlgen.PredicateCount(d.result)
}

// RecommendExamples suggests up to k values the user could confirm next
// to sharpen the abduction (the paper's §9 example-recommendation
// direction): entities in the current output whose confirmation would
// prune the most borderline candidate filters.
func (d *Discovery) RecommendExamples(k int) []string {
	return abduction.RecommendExamples(d.result, k)
}

// Plan lowers the abduced query to an executable engine plan over the
// combined database returned by ExecutableDB.
func (d *Discovery) Plan() *Query { return sqlgen.ToEngineQuery(d.result) }

// Result exposes the raw abduction result for experiment harnesses.
func (d *Discovery) Result() *abduction.Result { return d.result }

// ExecutableDB returns the database against which Plan() queries run:
// the original relations, and each derived relation as a view over its
// property's pair lists (Database.View), whose rows an execution builds
// for itself.
func (s *System) ExecutableDB() *Database { return s.alpha.CombinedDB() }

// ExecuteContext runs a logical query plan against the combined
// database of the current epoch. Before a DISTINCT block whose From[0]
// is an entity relation is planned, the filters in it that spell one of
// the entity's semantic properties — the joins and predicates Plan
// lowers a discovered filter to — are answered from the αDB's memoized
// row sets (sqlgen.Reduce), so a discovered plan reads the sets its
// discovery built and joins nothing; what is not recognized to the
// letter runs through the engine over those rows. Executing reads the
// memos and never adds to them: a set no discovery of the epoch has
// left there — an insert cloned the property since, or a client wrote
// the plan — is built for the one execution, so operands a client
// chooses cannot grow resident memory.
//
// The engine orders the joins itself: it anchors at the relation its
// predicates make smallest and extends along the joins towards the
// smallest relation next, probing the hash indexes the epoch already
// holds (entity keys, fact foreign keys). A point predicate on a column
// the epoch does not index gets a posting list built for its block
// alone; a derived relation the row sets did not answer is a view whose
// rows are built for the block — only a value's pair list under a point
// predicate on value — and the execution stores nothing: no execution
// adds to the epoch's resident indexes. Rows come back in one
// canonical order — by row id, From[0]'s first, then the other
// relations' in name order — so the result, DISTINCT's surviving
// duplicate and GROUP BY's representative do not depend on the order
// chosen or on which indexes are resident.
//
// Execution is wait-free with respect to inserts: it pins one epoch and
// can never be stalled by (or stall) a writer. The engine consults ctx
// between pipeline stages and every few thousand rows read or emitted
// inside joins, so a canceled or deadline-expired context aborts even a
// pathological query instead of pinning an admission slot behind
// runaway work. The returned error wraps ctx's error; match it with
// errors.Is.
func (s *System) ExecuteContext(ctx context.Context, q *Query) (*ExecResult, error) {
	ep := s.alpha.Snapshot()
	reduce := func(ctx context.Context, block *Query) (*engine.Reduction, error) {
		red, err := sqlgen.Reduce(ctx, ep, block)
		switch {
		case err != nil: // canceled: no road answered the block
		case red == nil:
			s.execBlocks[blockNone].Add(1)
		case len(red.Rest.From) == 1 && len(red.Rest.Preds) == 0 && len(red.Rest.Joins) == 0:
			s.execBlocks[blockAll].Add(1)
		default:
			s.execBlocks[blockPart].Add(1)
		}
		return red, err
	}
	return engine.NewExecutorWithIndexes(ep.CombinedDB(), ep.Indexes).WithReducer(reduce).ExecuteCtx(ctx, q)
}

// How much of an executed SPJ block the αDB's row sets answered.
const (
	blockAll  = iota // all of it: only From[0] was left to read
	blockPart        // some filter groups; the rest ran through the joins
	blockNone        // nothing: the block ran as it was written
)

// ExecuteBlockMetrics counts the SPJ blocks (a plan's root and each of
// its INTERSECT branches) executed since boot by how they were
// answered: wholly from the αDB's row sets, partly, or by the join
// pipeline alone. Three atomic loads; safe at any scrape frequency.
func (s *System) ExecuteBlockMetrics() (all, part, none uint64) {
	return s.execBlocks[blockAll].Load(), s.execBlocks[blockPart].Load(), s.execBlocks[blockNone].Load()
}
