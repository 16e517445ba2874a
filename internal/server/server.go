package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"squid"
	"squid/internal/buildinfo"
	"squid/internal/trace"
	"squid/internal/wal"
)

// Config tunes the serving layer. The zero value gets sensible defaults
// from New.
type Config struct {
	// MaxInFlight bounds concurrently running discovery/execute
	// requests (0 = GOMAXPROCS). A /v1/discover/batch request occupies
	// one slot but discovers up to Params.Workers of its sets at once
	// (System.DiscoverBatch), so worst-case discovery parallelism is
	// MaxInFlight × Params.Workers. Inserts are not gated: their only
	// bounds are the αDB's one write lock and the 4096-row batch cap,
	// and under -wal-fsync=always an insert is not cheap (ROADMAP item
	// 11(a)).
	MaxInFlight int
	// QueueDepth bounds how many admission waiters may queue behind the
	// in-flight requests before new work is shed with 429
	// (0 = 4×MaxInFlight; negative = no queue, shed immediately).
	QueueDepth int
	// RequestTimeout is the per-request deadline wired into the
	// discovery's context (0 = 30s; negative = no deadline). The
	// abduction checks cancellation between candidate evaluations, so
	// expiry aborts even a single long discovery.
	RequestTimeout time.Duration
	// SnapshotPath, when set, enables the snapshot surfaces: warm-boot
	// callers load from it, POST /v1/snapshot re-saves it atomically,
	// and the final drain snapshot lands there.
	SnapshotPath string
	// SnapshotInterval, when positive (and SnapshotPath is set), starts
	// a background loop re-saving the snapshot every interval.
	SnapshotInterval time.Duration
	// Logger receives the server's structured log lines (nil =
	// slog.Default()). cmd/squid-server wires a JSON or text handler
	// behind -log-format.
	Logger *slog.Logger
	// SlowQueryThreshold marks request traces whose wall time reaches it
	// as slow: they emit one structured warn line with the per-phase
	// breakdown and surface under /debug/traces?slow=1
	// (0 = 1s; negative = disabled).
	SlowQueryThreshold time.Duration
}

// Server is the HTTP serving layer over one squid.System. Create it
// with New, mount it as an http.Handler, and on shutdown call
// BeginDrain before http.Server.Shutdown and Finalize after (see
// cmd/squid-server for the canonical wiring).
type Server struct {
	sys   *squid.System
	cfg   Config
	mux   *http.ServeMux
	adm   *admission
	met   *metrics
	log   *slog.Logger
	start time.Time

	// reqPrefix + reqSeq mint the per-request ids: a random per-process
	// prefix so ids from different server lives never collide, and a
	// counter so one life's ids sort in arrival order.
	reqPrefix string
	reqSeq    atomic.Uint64

	// recorders keeps finished span recorders for reuse: every discover,
	// execute and insert request records into one, and a recorder's span
	// array (~61 KB) would otherwise be allocated and zeroed per request.
	recorders sync.Pool

	draining atomic.Bool

	snapMu sync.Mutex // serializes snapshot writes

	stopSnap  chan struct{}
	snapWG    sync.WaitGroup
	finalOnce sync.Once
	finalErr  error
}

// New builds the serving layer over sys, applying Config defaults and
// starting the periodic snapshot loop when configured.
func New(sys *squid.System, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 4 * cfg.MaxInFlight
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	switch {
	case cfg.RequestTimeout == 0:
		cfg.RequestTimeout = 30 * time.Second
	case cfg.RequestTimeout < 0:
		cfg.RequestTimeout = 0
	}
	switch {
	case cfg.SlowQueryThreshold == 0:
		cfg.SlowQueryThreshold = time.Second
	case cfg.SlowQueryThreshold < 0:
		cfg.SlowQueryThreshold = 0 // disabled
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	var prefix [6]byte
	_, _ = rand.Read(prefix[:])
	s := &Server{
		sys:       sys,
		cfg:       cfg,
		mux:       http.NewServeMux(),
		adm:       newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
		met:       newMetrics(),
		log:       cfg.Logger,
		start:     time.Now(),
		reqPrefix: hex.EncodeToString(prefix[:]),
		stopSnap:  make(chan struct{}),
	}
	s.recorders.New = func() any { return trace.NewRecorder(0) }
	s.route("POST /v1/discover", s.handleDiscover)
	s.route("POST /v1/discover/batch", s.handleDiscoverBatch)
	s.route("POST /v1/execute", s.handleExecute)
	s.route("POST /v1/insert", s.handleInsert)
	s.route("POST /v1/insert/batch", s.handleInsertBatch)
	s.route("POST /v1/snapshot", s.handleSnapshot)
	s.route("GET /v1/stats", s.handleStats)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /debug/traces", s.handleDebugTraces)

	if cfg.SnapshotPath != "" && cfg.SnapshotInterval > 0 {
		s.snapWG.Add(1)
		go s.snapshotLoop()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// route mounts an instrumented handler: every request gets a request id
// (minted here unless the client sent X-Request-Id, echoed back in the
// X-Request-Id response header, and carried in the request context for
// traces and log lines), is counted by route and status code, and its
// latency lands in the route's histogram. A handler panic is contained
// here — logged with its stack, counted (squid_panics_total), answered
// with 500 when nothing was written yet — so one poisoned request can
// never take the process down. The handler's own defers (admission
// release, context cancel) run during the unwind before the recovery,
// so no slot leaks.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	_, path, _ := strings.Cut(pattern, " ")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.met.httpInFlight.Add(1)
		defer s.met.httpInFlight.Add(-1)
		rid := r.Header.Get("X-Request-Id")
		if rid == "" {
			rid = s.reqPrefix + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
		} else if len(rid) > maxRequestIDLen {
			rid = rid[:maxRequestIDLen]
		}
		w.Header().Set("X-Request-Id", rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panicsTotal.Add(1)
				s.log.Error("handler panic contained",
					"route", path, "request_id", rid,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError, ErrorResponse{
						Error: "internal server error", Code: "internal_error"})
				} else {
					// Too late to change the client's answer; at least
					// record the truth in the metrics.
					sw.code = http.StatusInternalServerError
				}
			}
			s.met.record(path, sw.code, time.Since(start).Seconds())
		}()
		h(sw, r)
	})
}

// maxRequestIDLen caps client-supplied X-Request-Id values so a hostile
// header cannot bloat every log line and trace that echoes it.
const maxRequestIDLen = 128

// requestIDKey carries the request id through the request context.
type requestIDKey struct{}

// requestIDFrom returns the request id minted (or accepted) by route,
// or "" on a context that never passed through it.
func requestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(requestIDKey{}).(string)
	return rid
}

// statusWriter captures the response status code for metrics and
// whether anything was written (the panic recovery must not write a 500
// over a partially sent response).
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// requestCtx derives the per-request context: the client's cancellation
// plus the configured server-side deadline.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// --- wire types -------------------------------------------------------

// ErrorResponse is the JSON error envelope of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// DiscoverRequest asks for one query intent discovery.
type DiscoverRequest struct {
	Examples []string `json:"examples"`
	// Explain requests the full Algorithm 1 reasoning in the response.
	Explain bool `json:"explain,omitempty"`
}

// DiscoverResponse is one abduced query intent.
type DiscoverResponse struct {
	Entity     string    `json:"entity"`
	Attribute  string    `json:"attribute"`
	SQL        string    `json:"sql"`
	Original   string    `json:"original"`
	Filters    []string  `json:"filters"`
	Joins      int       `json:"join_predicates"`
	Selections int       `json:"selection_predicates"`
	Output     []string  `json:"output"`
	Query      QueryJSON `json:"query"`
	Explain    string    `json:"explain,omitempty"`
	WallMS     float64   `json:"wall_ms"`
	// Trace is the request's span tree, embedded when the client asked
	// with ?trace=1.
	Trace *trace.TraceJSON `json:"trace,omitempty"`
}

// BatchDiscoverRequest asks for many independent discoveries, run
// Params.Workers at a time by System.DiscoverBatch.
type BatchDiscoverRequest struct {
	Sets    [][]string `json:"sets"`
	Explain bool       `json:"explain,omitempty"`
}

// BatchDiscoverResponse is parallel to the request's Sets: failed sets
// have a null result and their error text in Errors.
type BatchDiscoverResponse struct {
	Results []*DiscoverResponse `json:"results"`
	Errors  []string            `json:"errors"`
	WallMS  float64             `json:"wall_ms"`
}

// ExecuteRequest runs one logical query plan.
type ExecuteRequest struct {
	Query QueryJSON `json:"query"`
}

// ExecuteResponse holds the projected tuples.
type ExecuteResponse struct {
	Cols    []string `json:"cols"`
	Rows    [][]any  `json:"rows"`
	NumRows int      `json:"num_rows"`
	WallMS  float64  `json:"wall_ms"`
	// Trace is the request's span tree, embedded when the client asked
	// with ?trace=1: the executor's stages in the order they ran — first,
	// when filters of the plan were answered from the αDB's row sets, a
	// reduce:<entity> stage with their number (filters) over one rowset
	// span a filter — each scan and join with its estimate (est_rows)
	// next to its rows and the cells it read without an index
	// (cells_streamed).
	Trace *trace.TraceJSON `json:"trace,omitempty"`
}

// InsertRequest appends one row; the target may be an entity or a fact
// relation (dispatched automatically, like squid.InsertOp).
type InsertRequest struct {
	Rel    string `json:"rel"`
	Values []any  `json:"values"`
}

// InsertBatchRequest appends many rows inside one αDB critical section.
type InsertBatchRequest struct {
	Ops []InsertRequest `json:"ops"`
}

// InsertResponse reports how many rows were applied.
type InsertResponse struct {
	Inserted int     `json:"inserted"`
	WallMS   float64 `json:"wall_ms"`
}

// SnapshotResponse reports an on-demand snapshot save.
type SnapshotResponse struct {
	Path   string  `json:"path"`
	Bytes  int64   `json:"bytes"`
	WallMS float64 `json:"wall_ms"`
}

// StatsResponse is the introspection surface: the Fig 18 αDB statistics
// plus online-pipeline health.
type StatsResponse struct {
	Name             string         `json:"name"`
	Version          buildinfo.Info `json:"version"`
	UptimeSec        float64        `json:"uptime_sec"`
	DBBytes          int64          `json:"db_bytes"`
	NumRelations     int            `json:"num_relations"`
	PrecomputedBytes int64          `json:"precomputed_bytes"`
	BuildMS          float64        `json:"build_ms"`
	DerivedRelations int            `json:"derived_relations"`
	DerivedRows      int            `json:"derived_rows"`
	BasicProps       int            `json:"basic_props"`
	DerivedProps     int            `json:"derived_props"`
	HashIndexes      int            `json:"hash_indexes"`
	SelCacheEntries  int            `json:"selcache_entries"`
	SelCacheHits     uint64         `json:"selcache_hits"`
	SelCacheMisses   uint64         `json:"selcache_misses"`
	EpochSeq         uint64         `json:"epoch_seq"`
	EpochAgeSec      float64        `json:"epoch_age_sec"`
	EpochPublishes   uint64         `json:"epoch_publishes"`
	RelationCards    []RelCard      `json:"relation_cards"`
	// ResidentBytes attributes the epoch's memory by structure, under
	// the names squid_resident_bytes uses on /metrics, plus the insert
	// tails' share of hash_index.
	ResidentBytes map[string]int64 `json:"resident_bytes"`
}

// RelCard pairs a relation with its cardinality.
type RelCard struct {
	Relation string `json:"relation"`
	Rows     int    `json:"rows"`
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	var req DiscoverRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	start := time.Now()
	defer s.adm.releaseAndObserve(start)
	rec := s.recorder()
	root := rec.Root(trace.PhaseDiscover, "")
	disc, err := s.sys.DiscoverContext(trace.NewContext(ctx, root), req.Examples)
	root.End()
	t := s.observeTrace(r, rec, "discover")
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := s.discoverResponse(disc, req.Explain, time.Since(start))
	if wantTrace(r) {
		resp.Trace = t.JSON()
	}
	writeJSON(w, http.StatusOK, resp)
}

// wantTrace reports whether the client asked for the span tree in the
// response (?trace=1). Tracing itself is always on — the recorder is
// cheap and the ring wants every request — the flag only controls
// response embedding.
func wantTrace(r *http.Request) bool {
	v := r.URL.Query().Get("trace")
	return v == "1" || v == "true"
}

// recorder takes a span recorder from the pool, reset for one request;
// observeTrace puts it back.
func (s *Server) recorder() *trace.Recorder {
	rec := s.recorders.Get().(*trace.Recorder)
	rec.Reset()
	return rec
}

// observeTrace finalizes a request's recorder and lands the trace
// everywhere the serving layer exposes it: the slow-query log line (when
// the wall time reaches the threshold), the System's trace ring
// (/debug/traces), and — for discoveries — the per-phase latency
// histograms on /metrics. Call it after the request's work has joined
// and before writing the response, so an embedded trace is final. The
// trace is a copy, so the recorder goes back to the pool here.
func (s *Server) observeTrace(r *http.Request, rec *trace.Recorder, kind string) *trace.Trace {
	t := rec.Finish(kind, requestIDFrom(r.Context()))
	s.recorders.Put(rec)
	if th := s.cfg.SlowQueryThreshold; th > 0 && t.Wall >= th {
		t.Slow = true
		phases := make(map[string]float64)
		for phase, d := range t.PhaseTotals() {
			phases[phase] = msOf(d)
		}
		s.log.Warn("slow query",
			"kind", kind,
			"request_id", t.RequestID,
			"wall_ms", msOf(t.Wall),
			"threshold_ms", msOf(th),
			"phase_ms", phases)
	}
	s.sys.Traces().Put(t)
	if kind == "discover" {
		for phase, d := range t.PhaseTotals() {
			s.met.observePhase(phase, d.Seconds())
		}
	}
	return t
}

func (s *Server) handleDiscoverBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchDiscoverRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	start := time.Now()
	defer s.adm.releaseAndObserve(start)
	results, errs := s.sys.DiscoverBatch(ctx, req.Sets)
	wall := time.Since(start)
	resp := BatchDiscoverResponse{
		Results: make([]*DiscoverResponse, len(results)),
		Errors:  make([]string, len(results)),
		WallMS:  msOf(wall),
	}
	for i, d := range results {
		if d != nil {
			resp.Results[i] = s.discoverResponse(d, req.Explain, 0)
		} else if errs[i] != nil {
			resp.Errors[i] = errs[i].Error()
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req ExecuteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, err := req.Query.ToEngineQuery()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_query"})
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	if !s.admit(ctx, w) {
		return
	}
	start := time.Now()
	defer s.adm.releaseAndObserve(start)
	rec := s.recorder()
	root := rec.Root(trace.PhaseExecute, "")
	res, err := s.sys.ExecuteContext(trace.NewContext(ctx, root), q)
	root.End()
	t := s.observeTrace(r, rec, "execute")
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: err.Error(), Code: "timeout"})
		case errors.Is(err, context.Canceled):
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Code: "canceled"})
		default:
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_query"})
		}
		return
	}
	resp := ExecuteResponse{
		Cols:    res.Cols,
		Rows:    make([][]any, 0, len(res.Rows)),
		NumRows: res.NumRows(),
		WallMS:  msOf(time.Since(start)),
	}
	for _, row := range res.Rows {
		out := make([]any, len(row))
		for i, v := range row {
			out[i] = valueToJSON(v)
		}
		resp.Rows = append(resp.Rows, out)
	}
	if wantTrace(r) {
		resp.Trace = t.JSON()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.applyInserts(w, r, []InsertRequest{req})
}

func (s *Server) handleInsertBatch(w http.ResponseWriter, r *http.Request) {
	var req InsertBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.applyInserts(w, r, req.Ops)
}

// maxBatchOps caps the rows of one insert request: a batch builds one
// copy-on-write epoch, so the cap bounds the clone footprint and the
// publish latency of a single request (discoveries are never stalled
// either way — readers are wait-free on their pinned epochs).
const maxBatchOps = 4096

// applyInserts converts the wire rows against the live schema and
// applies them through System.InsertBatchContext (one copy-on-write
// epoch per batch), tracing the lock wait, the apply, the publish, and
// the WAL barrier under one insert root span. Schema validation reads
// the current epoch's combined database — memoized per epoch, so
// resolving it per request is one atomic load.
func (s *Server) applyInserts(w http.ResponseWriter, r *http.Request, rows []InsertRequest) {
	if len(rows) > maxBatchOps {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("batch of %d rows exceeds the %d-row cap; split it (each batch holds the write lock once)",
				len(rows), maxBatchOps),
			Code: "batch_too_large"})
		return
	}
	db := s.sys.ExecutableDB()
	ops := make([]squid.InsertOp, 0, len(rows))
	for i, row := range rows {
		rel := db.Relation(row.Rel)
		if rel == nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: fmt.Sprintf("row %d: unknown relation %q", i, row.Rel), Code: "bad_insert"})
			return
		}
		cols := rel.Columns()
		if len(row.Values) != len(cols) {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: fmt.Sprintf("row %d: relation %q wants %d values, got %d",
					i, row.Rel, len(cols), len(row.Values)), Code: "bad_insert"})
			return
		}
		vals := make([]squid.Value, len(cols))
		for j, raw := range row.Values {
			v, err := valueForColumn(cols[j], raw)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, ErrorResponse{
					Error: fmt.Sprintf("row %d: %v", i, err), Code: "bad_insert"})
				return
			}
			vals[j] = v
		}
		ops = append(ops, squid.InsertOp{Rel: row.Rel, Vals: vals})
	}
	start := time.Now()
	rec := s.recorder()
	root := rec.Root(trace.PhaseInsert, "")
	root.Add(trace.CounterRows, int64(len(ops)))
	err := s.sys.InsertBatchContext(trace.NewContext(r.Context(), root), ops)
	root.End()
	s.observeTrace(r, rec, "insert")
	if err != nil {
		if errors.Is(err, squid.ErrWALSync) {
			// The rows are in memory but not durable, and the log refuses
			// further writes: a server error, not the client's fault.
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{
				Error: err.Error(), Code: "wal_sync_failed"})
			return
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "bad_insert"})
		return
	}
	writeJSON(w, http.StatusOK, InsertResponse{Inserted: len(ops), WallMS: msOf(time.Since(start))})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.SnapshotPath == "" {
		writeJSON(w, http.StatusConflict, ErrorResponse{
			Error: "no snapshot path configured", Code: "no_snapshot_path"})
		return
	}
	start := time.Now()
	n, err := s.SaveSnapshot()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Code: "snapshot_failed"})
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{
		Path: s.cfg.SnapshotPath, Bytes: n, WallMS: msOf(time.Since(start))})
}

// handleStats renders the introspection surface from one pinned αDB
// epoch: System.Stats snapshots the epoch once and derives every field
// from that single consistent state, wait-free with respect to
// writers.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.sys.Stats()
	resp := StatsResponse{
		Name:             st.Name,
		Version:          buildinfo.Get(),
		UptimeSec:        time.Since(s.start).Seconds(),
		DBBytes:          st.DBBytes,
		NumRelations:     st.NumRelations,
		PrecomputedBytes: st.PrecomputedSize,
		BuildMS:          msOf(st.BuildTime),
		DerivedRelations: st.NumDerivedRels,
		DerivedRows:      st.DerivedRows,
		BasicProps:       st.NumBasicProps,
		DerivedProps:     st.NumDerivedProp,
		HashIndexes:      st.NumHashIndexes,
		SelCacheEntries:  st.SelCacheEntries,
		SelCacheHits:     st.SelCacheHits,
		SelCacheMisses:   st.SelCacheMisses,
		EpochSeq:         st.EpochSeq,
		EpochAgeSec:      st.EpochAgeSec,
		EpochPublishes:   st.EpochPublishes,
		ResidentBytes:    map[string]int64{"hash_index_tail": st.Resident.HashIndexTail},
	}
	for _, rs := range residentSeries(st.Resident) {
		resp.ResidentBytes[rs.structure] = rs.bytes
	}
	for _, rc := range st.RelationCards {
		resp.RelationCards = append(resp.RelationCards, RelCard{Relation: rc.Relation, Rows: rc.Rows})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_sec": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The scrape reads cheap counters — the selectivity-cache numbers
	// and the epoch chain's health, one atomic load each — and the
	// resident-byte attribution, one pass over structure headers; never
	// the full Stats computation.
	hits, misses, entries := s.sys.CacheMetrics()
	epochSeq, epochAge, publishes := s.sys.EpochMetrics()
	retired, retainedBytes := s.sys.EpochGCMetrics()
	execAll, execPart, execNone := s.sys.ExecuteBlockMetrics()
	var walMetrics *wal.Metrics
	if l := s.sys.WAL(); l != nil {
		wm := l.Metrics()
		walMetrics = &wm
	}
	var b strings.Builder
	s.met.render(&b, liveGauges{
		discoverInFlight:   s.adm.inFlight(),
		queueDepth:         s.adm.queued.Load(),
		cacheHits:          hits,
		cacheMisses:        misses,
		cacheEntries:       entries,
		epochSeq:           epochSeq,
		epochAgeSec:        epochAge.Seconds(),
		epochPublishes:     publishes,
		epochRetired:       retired,
		epochRetainedBytes: retainedBytes,
		executeAll:         execAll,
		executePart:        execPart,
		executeNone:        execNone,
		resident:           s.sys.ResidentBytes(),
		wal:                walMetrics,
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// DebugTracesResponse is the GET /debug/traces answer: the most recent
// request traces, newest first.
type DebugTracesResponse struct {
	// SlowQueryThresholdMS is the configured slow-query threshold
	// (0 when disabled).
	SlowQueryThresholdMS float64 `json:"slow_query_threshold_ms"`
	// Total counts every trace recorded since boot, including those the
	// ring has already overwritten.
	Total uint64 `json:"total"`
	// Traces holds the selected traces, newest first.
	Traces []*trace.TraceJSON `json:"traces"`
}

// handleDebugTraces serves the trace ring: `?n=` caps how many recent
// traces return (default 32), `?slow=1` keeps only traces past the
// slow-query threshold. Reads are wait-free against in-flight writers —
// the ring hands out immutable *Trace values.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	max := 32
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{
				Error: fmt.Sprintf("bad n %q: want a positive integer", v), Code: "bad_request"})
			return
		}
		max = n
	}
	slowOnly := q.Get("slow") == "1" || q.Get("slow") == "true"
	ring := s.sys.Traces()
	resp := DebugTracesResponse{
		SlowQueryThresholdMS: msOf(s.cfg.SlowQueryThreshold),
		Total:                ring.Total(),
		Traces:               []*trace.TraceJSON{},
	}
	for _, t := range ring.Recent(max) {
		if slowOnly && !t.Slow {
			continue
		}
		resp.Traces = append(resp.Traces, t.JSON())
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- shared plumbing --------------------------------------------------

// admit claims an admission slot, writing the load-shedding or timeout
// response itself when the claim fails.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) bool {
	err := s.adm.acquire(ctx)
	switch {
	case err == nil:
		return true
	case errors.Is(err, ErrOverloaded):
		s.met.shedTotal.Add(1)
		// Hint when a retry would plausibly find queue room: work ahead
		// over observed service rate, not a constant.
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: err.Error(), Code: "overloaded"})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{
			Error: "timed out waiting for an admission slot", Code: "timeout"})
	default: // client went away while queued
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error: err.Error(), Code: "canceled"})
	}
	return false
}

// writeError maps a discovery error to its HTTP shape.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, squid.ErrNoExamples):
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Code: "no_examples"})
	case errors.Is(err, squid.ErrNoEntities):
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error(), Code: "no_entities"})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: err.Error(), Code: "timeout"})
	case errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Code: "canceled"})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Code: "internal"})
	}
}

func (s *Server) discoverResponse(d *squid.Discovery, explain bool, wall time.Duration) *DiscoverResponse {
	joins, sels := d.PredicateCount()
	resp := &DiscoverResponse{
		Entity:     d.Entity,
		Attribute:  d.Attribute,
		SQL:        d.SQL,
		Original:   d.Original,
		Joins:      joins,
		Selections: sels,
		Filters:    make([]string, len(d.Filters)),
		Output:     d.Output,
		Query:      FromEngineQuery(d.Plan()),
		WallMS:     msOf(wall),
	}
	for i, f := range d.Filters {
		resp.Filters[i] = f.String()
	}
	if explain {
		resp.Explain = d.Explain()
	}
	return resp
}

// decodeBody decodes the JSON request body (capped at 8 MiB), writing
// the 400 itself on malformed input. The body is one JSON value: anything
// but whitespace after it is malformed too, not ignored.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: "malformed request body: " + err.Error(), Code: "bad_request"})
		return false
	}
	return true
}

// respBufs recycles the buffers responses are encoded into, so encoding
// before the status line adds no per-request garbage; a buffer a very
// large response grew is left to the collector.
var respBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeJSON encodes body before it writes the status line, so the
// status says whether the body could be encoded and Content-Length is
// exact. A body that cannot be — a DOUBLE cell holding NaN or ±Inf has
// no JSON form — is a 500 unencodable_result carrying the encoder's
// message: never a 200 with an empty body, and never a null a client
// would read as SQL NULL.
func writeJSON(w http.ResponseWriter, code int, body any) {
	buf := respBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= 1<<20 {
			respBufs.Put(buf)
		}
	}()
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		buf.Reset()
		code = http.StatusInternalServerError
		_ = json.NewEncoder(buf).Encode(ErrorResponse{Error: "the result cannot be encoded as JSON: " + err.Error(), Code: "unencodable_result"})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// --- snapshot & drain -------------------------------------------------

// SaveSnapshot persists the system to the configured path with a
// write-then-rename, so an interrupted save never leaves a truncated
// snapshot poisoning later warm boots. Concurrent saves serialize; the
// save itself pins the αDB epoch current at encode time, so it
// captures every previously acknowledged write (an insert only
// returns after its epoch is published) while discoveries and further
// inserts keep running untouched.
//
// With a write-ahead log attached, a save is also a log checkpoint:
// the log rotates before the encode (the retired segment is fully
// synced and every record in it has a sequence the snapshot will
// cover) and discards it only after the rename lands. A crash at any
// point in between leaves both the retired segment and the old
// snapshot in place, so no acknowledged write is ever lost to a
// half-finished checkpoint.
func (s *Server) SaveSnapshot() (int64, error) {
	if s.cfg.SnapshotPath == "" {
		return 0, errors.New("server: no snapshot path configured")
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if l := s.sys.WAL(); l != nil {
		if err := l.BeginCheckpoint(); err != nil {
			return 0, fmt.Errorf("server: snapshot: wal checkpoint: %w", err)
		}
	}
	tmp := s.cfg.SnapshotPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	if err := s.sys.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	// Flush to stable storage before the rename makes the file visible
	// at the final path: a crash right after the rename must not leave
	// a truncated snapshot there.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	info, statErr := f.Stat()
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.cfg.SnapshotPath); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("server: snapshot: %w", err)
	}
	if l := s.sys.WAL(); l != nil {
		// The snapshot durably covers everything in the retired segment;
		// only now is it safe to discard. Failure is non-fatal: the
		// segment is re-discarded by the next successful checkpoint.
		if err := l.EndCheckpoint(); err != nil {
			s.log.Warn("wal checkpoint cleanup failed", "err", err)
		}
	}
	s.met.snapshotTotal.Add(1)
	s.met.snapshotUnix.Store(time.Now().Unix())
	if statErr != nil {
		return 0, nil
	}
	return info.Size(), nil
}

// snapshotLoop re-saves the snapshot every SnapshotInterval until
// Finalize stops it. Failures are logged and counted
// (squid_snapshot_failures_total), so a full disk shows up in both the
// server log and the scrape instead of silently dropping checkpoints.
func (s *Server) snapshotLoop() {
	defer s.snapWG.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := s.SaveSnapshot(); err != nil {
				s.met.snapshotFailed.Add(1)
				s.log.Error("periodic snapshot failed", "err", err)
			}
		case <-s.stopSnap:
			return
		}
	}
}

// BeginDrain flips the server into draining mode: /healthz answers 503
// so load balancers stop routing new traffic. Requests already accepted
// keep being served; pair it with http.Server.Shutdown, which stops
// accepting connections and waits for in-flight requests.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Finalize stops the periodic snapshot loop, writes the final
// snapshot (when a path is configured), and closes the write-ahead log
// (final fsync, so even under the interval policy a graceful shutdown
// loses nothing). Call it after http.Server.Shutdown has returned, so
// the final snapshot includes every insert that was in flight: the
// save pins the epoch current at Finalize time — the final published
// epoch — never a stale one held from before the drain. Idempotent.
func (s *Server) Finalize() error {
	s.finalOnce.Do(func() {
		close(s.stopSnap)
		s.snapWG.Wait()
		if s.cfg.SnapshotPath != "" {
			_, s.finalErr = s.SaveSnapshot()
		}
		if l := s.sys.WAL(); l != nil {
			if err := l.Close(); err != nil && s.finalErr == nil {
				s.finalErr = fmt.Errorf("server: close wal: %w", err)
			}
		}
	})
	return s.finalErr
}
