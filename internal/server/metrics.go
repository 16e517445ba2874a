package server

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"squid"
	"squid/internal/buildinfo"
	"squid/internal/wal"
)

// latencyBuckets are the histogram upper bounds in seconds, chosen to
// resolve both index-backed sub-millisecond discoveries and multi-second
// cold paths.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5,
}

// latencyHistogram is a fixed-bucket latency histogram (counts are
// per-bucket internally, rendered cumulative as the Prometheus
// exposition format expects).
type latencyHistogram struct {
	mu      sync.Mutex
	buckets []uint64 // one per latencyBuckets entry, plus +Inf at the end
	sum     float64
	count   uint64
}

func newLatencyHistogram() *latencyHistogram {
	return &latencyHistogram{buckets: make([]uint64, len(latencyBuckets)+1)}
}

func (h *latencyHistogram) observe(seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(latencyBuckets, seconds)
	h.buckets[i]++
	h.sum += seconds
	h.count++
}

// metrics is the server's observability state: request counters by route
// and status code, in-flight gauges, admission counters, and per-route
// latency histograms. All methods are safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	requests map[string]uint64            // "route\x00code" → count
	latency  map[string]*latencyHistogram // route → histogram

	phaseMu sync.Mutex
	phase   map[string]*latencyHistogram // discovery phase → histogram

	httpInFlight   atomic.Int64 // requests currently being served
	shedTotal      atomic.Uint64
	snapshotTotal  atomic.Uint64
	snapshotFailed atomic.Uint64
	snapshotUnix   atomic.Int64
	panicsTotal    atomic.Uint64 // handler panics contained by route()
}

// liveGauges are point-in-time readings sampled at scrape time from the
// admission controller and the αDB statistics.
type liveGauges struct {
	discoverInFlight int
	queueDepth       int64
	cacheHits        uint64
	cacheMisses      uint64
	cacheEntries     int
	epochSeq         uint64
	epochAgeSec      float64
	epochPublishes   uint64

	// Executed SPJ blocks by how much of each the row sets answered.
	executeAll, executePart, executeNone uint64

	// Epoch-chain GC health (always rendered).
	epochRetired       int64
	epochRetainedBytes int64

	// Resident memory of the current epoch by structure.
	resident squid.ResidentBytes

	// Write-ahead-log health; nil when the system runs without a WAL.
	wal *wal.Metrics
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]uint64),
		latency:  make(map[string]*latencyHistogram),
		phase:    make(map[string]*latencyHistogram),
	}
}

// observePhase lands one discovery's leaf-phase duration in the phase's
// histogram (squid_discover_phase_seconds). Phases materialize on first
// observation, so the scrape lists exactly the phases real traffic
// exercised.
func (m *metrics) observePhase(phase string, seconds float64) {
	m.phaseMu.Lock()
	h := m.phase[phase]
	if h == nil {
		h = newLatencyHistogram()
		m.phase[phase] = h
	}
	m.phaseMu.Unlock()
	h.observe(seconds)
}

func (m *metrics) record(route string, code int, seconds float64) {
	key := route + "\x00" + strconv.Itoa(code)
	m.mu.Lock()
	m.requests[key]++
	h := m.latency[route]
	if h == nil {
		h = newLatencyHistogram()
		m.latency[route] = h
	}
	m.mu.Unlock()
	h.observe(seconds)
}

// render writes the Prometheus text exposition. The gauges come from
// live readings the caller samples at scrape time, so /metrics reflects
// admission and cache health without the registry holding server state.
func (m *metrics) render(w *strings.Builder, live liveGauges) {
	m.mu.Lock()
	reqKeys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	sort.Strings(reqKeys)
	routeKeys := make([]string, 0, len(m.latency))
	for k := range m.latency {
		routeKeys = append(routeKeys, k)
	}
	sort.Strings(routeKeys)

	bi := buildinfo.Get()
	fmt.Fprintf(w, "# HELP squid_build_info Build identity of the running binary (the value is always 1; the labels carry the information).\n")
	fmt.Fprintf(w, "# TYPE squid_build_info gauge\n")
	fmt.Fprintf(w, "squid_build_info{go_version=%q,version=%q,revision=%q,modified=%q} 1\n",
		bi.GoVersion, bi.Version, bi.Revision, strconv.FormatBool(bi.Modified))

	fmt.Fprintf(w, "# HELP squid_http_requests_total HTTP requests served, by route and status code.\n")
	fmt.Fprintf(w, "# TYPE squid_http_requests_total counter\n")
	for _, k := range reqKeys {
		route, code, _ := strings.Cut(k, "\x00")
		fmt.Fprintf(w, "squid_http_requests_total{route=%q,code=%q} %d\n", route, code, m.requests[k])
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP squid_http_in_flight_requests Requests currently being served.\n")
	fmt.Fprintf(w, "# TYPE squid_http_in_flight_requests gauge\n")
	fmt.Fprintf(w, "squid_http_in_flight_requests %d\n", m.httpInFlight.Load())

	fmt.Fprintf(w, "# HELP squid_discoveries_in_flight Admitted discovery requests currently running.\n")
	fmt.Fprintf(w, "# TYPE squid_discoveries_in_flight gauge\n")
	fmt.Fprintf(w, "squid_discoveries_in_flight %d\n", live.discoverInFlight)

	fmt.Fprintf(w, "# HELP squid_admission_queue_depth Discovery requests waiting for an admission slot.\n")
	fmt.Fprintf(w, "# TYPE squid_admission_queue_depth gauge\n")
	fmt.Fprintf(w, "squid_admission_queue_depth %d\n", live.queueDepth)

	fmt.Fprintf(w, "# HELP squid_admission_shed_total Requests rejected with 429 because the admission queue was full.\n")
	fmt.Fprintf(w, "# TYPE squid_admission_shed_total counter\n")
	fmt.Fprintf(w, "squid_admission_shed_total %d\n", m.shedTotal.Load())

	fmt.Fprintf(w, "# HELP squid_snapshot_saves_total Snapshot saves completed (periodic and on-demand).\n")
	fmt.Fprintf(w, "# TYPE squid_snapshot_saves_total counter\n")
	fmt.Fprintf(w, "squid_snapshot_saves_total %d\n", m.snapshotTotal.Load())
	fmt.Fprintf(w, "# HELP squid_snapshot_failures_total Snapshot saves that failed (disk full, unwritable path).\n")
	fmt.Fprintf(w, "# TYPE squid_snapshot_failures_total counter\n")
	fmt.Fprintf(w, "squid_snapshot_failures_total %d\n", m.snapshotFailed.Load())
	if unix := m.snapshotUnix.Load(); unix > 0 {
		fmt.Fprintf(w, "# HELP squid_snapshot_last_save_unix Unix time of the last completed snapshot save.\n")
		fmt.Fprintf(w, "# TYPE squid_snapshot_last_save_unix gauge\n")
		fmt.Fprintf(w, "squid_snapshot_last_save_unix %d\n", unix)
	}

	fmt.Fprintf(w, "# HELP squid_selcache_hits_total Selectivity-cache hits since boot.\n")
	fmt.Fprintf(w, "# TYPE squid_selcache_hits_total counter\n")
	fmt.Fprintf(w, "squid_selcache_hits_total %d\n", live.cacheHits)
	fmt.Fprintf(w, "# HELP squid_selcache_misses_total Selectivity-cache misses since boot.\n")
	fmt.Fprintf(w, "# TYPE squid_selcache_misses_total counter\n")
	fmt.Fprintf(w, "squid_selcache_misses_total %d\n", live.cacheMisses)
	fmt.Fprintf(w, "# HELP squid_selcache_entries Live selectivity-cache entries.\n")
	fmt.Fprintf(w, "# TYPE squid_selcache_entries gauge\n")
	fmt.Fprintf(w, "squid_selcache_entries %d\n", live.cacheEntries)
	if total := live.cacheHits + live.cacheMisses; total > 0 {
		fmt.Fprintf(w, "# HELP squid_selcache_hit_ratio Selectivity-cache hit ratio since boot.\n")
		fmt.Fprintf(w, "# TYPE squid_selcache_hit_ratio gauge\n")
		fmt.Fprintf(w, "squid_selcache_hit_ratio %g\n", float64(live.cacheHits)/float64(total))
	}

	fmt.Fprintf(w, "# HELP squid_execute_blocks_total SPJ blocks executed (a plan's root and each INTERSECT branch), by how much of each the αDB's row sets answered: all of its filters, part of them, or none (the join pipeline alone).\n")
	fmt.Fprintf(w, "# TYPE squid_execute_blocks_total counter\n")
	fmt.Fprintf(w, "squid_execute_blocks_total{reduced=\"all\"} %d\n", live.executeAll)
	fmt.Fprintf(w, "squid_execute_blocks_total{reduced=\"part\"} %d\n", live.executePart)
	fmt.Fprintf(w, "squid_execute_blocks_total{reduced=\"none\"} %d\n", live.executeNone)

	fmt.Fprintf(w, "# HELP squid_epoch_seq Sequence number of the current αDB epoch.\n")
	fmt.Fprintf(w, "# TYPE squid_epoch_seq gauge\n")
	fmt.Fprintf(w, "squid_epoch_seq %d\n", live.epochSeq)
	fmt.Fprintf(w, "# HELP squid_epoch_age_seconds Age of the current αDB epoch (time since the last copy-on-write publish).\n")
	fmt.Fprintf(w, "# TYPE squid_epoch_age_seconds gauge\n")
	fmt.Fprintf(w, "squid_epoch_age_seconds %g\n", live.epochAgeSec)
	fmt.Fprintf(w, "# HELP squid_epoch_publishes_total Copy-on-write epoch publishes since boot (one per insert batch).\n")
	fmt.Fprintf(w, "# TYPE squid_epoch_publishes_total counter\n")
	fmt.Fprintf(w, "squid_epoch_publishes_total %d\n", live.epochPublishes)
	fmt.Fprintf(w, "# HELP squid_epoch_retired Retired epochs not yet garbage-collected (readers or leaked discoveries pin them).\n")
	fmt.Fprintf(w, "# TYPE squid_epoch_retired gauge\n")
	fmt.Fprintf(w, "squid_epoch_retired %d\n", live.epochRetired)
	fmt.Fprintf(w, "# HELP squid_epoch_retained_bytes Bytes retired epochs keep alive on their own: what the publishes that retired them copied (chunks, index tails and folds, count-column patches).\n")
	fmt.Fprintf(w, "# TYPE squid_epoch_retained_bytes gauge\n")
	fmt.Fprintf(w, "squid_epoch_retained_bytes %d\n", live.epochRetainedBytes)

	fmt.Fprintf(w, "# HELP squid_resident_bytes Resident memory of the current αDB epoch by structure, counted from lengths and element widths (the inverted index and dictionary maps are not attributed).\n")
	fmt.Fprintf(w, "# TYPE squid_resident_bytes gauge\n")
	for _, s := range residentSeries(live.resident) {
		fmt.Fprintf(w, "squid_resident_bytes{structure=%q} %d\n", s.structure, s.bytes)
	}

	fmt.Fprintf(w, "# HELP squid_panics_total Handler panics contained by the serving layer.\n")
	fmt.Fprintf(w, "# TYPE squid_panics_total counter\n")
	fmt.Fprintf(w, "squid_panics_total %d\n", m.panicsTotal.Load())

	if wm := live.wal; wm != nil {
		fmt.Fprintf(w, "# HELP squid_wal_records_total Records appended to the write-ahead log since boot.\n")
		fmt.Fprintf(w, "# TYPE squid_wal_records_total counter\n")
		fmt.Fprintf(w, "squid_wal_records_total %d\n", wm.Records)
		fmt.Fprintf(w, "# HELP squid_wal_bytes_total Bytes appended to the write-ahead log since boot.\n")
		fmt.Fprintf(w, "# TYPE squid_wal_bytes_total counter\n")
		fmt.Fprintf(w, "squid_wal_bytes_total %d\n", wm.Bytes)
		fmt.Fprintf(w, "# HELP squid_wal_syncs_total fsync calls issued by the write-ahead log.\n")
		fmt.Fprintf(w, "# TYPE squid_wal_syncs_total counter\n")
		fmt.Fprintf(w, "squid_wal_syncs_total %d\n", wm.Syncs)
		fmt.Fprintf(w, "# HELP squid_wal_sync_failures_total fsync calls that failed (each poisons the log until reboot).\n")
		fmt.Fprintf(w, "# TYPE squid_wal_sync_failures_total counter\n")
		fmt.Fprintf(w, "squid_wal_sync_failures_total %d\n", wm.SyncFailures)
		fmt.Fprintf(w, "# HELP squid_wal_rotations_total Log rotations (one per completed snapshot checkpoint).\n")
		fmt.Fprintf(w, "# TYPE squid_wal_rotations_total counter\n")
		fmt.Fprintf(w, "squid_wal_rotations_total %d\n", wm.Rotations)
		fmt.Fprintf(w, "# HELP squid_wal_replayed_records Records replayed from the log at boot.\n")
		fmt.Fprintf(w, "# TYPE squid_wal_replayed_records gauge\n")
		fmt.Fprintf(w, "squid_wal_replayed_records %d\n", wm.ReplayedRecs)
		fmt.Fprintf(w, "# HELP squid_wal_truncated_bytes Torn-tail bytes discarded from the log at boot.\n")
		fmt.Fprintf(w, "# TYPE squid_wal_truncated_bytes gauge\n")
		fmt.Fprintf(w, "squid_wal_truncated_bytes %d\n", wm.TruncatedBytes)
		fmt.Fprintf(w, "# HELP squid_wal_last_seq Highest epoch sequence number appended to the log.\n")
		fmt.Fprintf(w, "# TYPE squid_wal_last_seq gauge\n")
		fmt.Fprintf(w, "squid_wal_last_seq %d\n", wm.LastSeq)
		failed := 0
		if wm.Failed {
			failed = 1
		}
		fmt.Fprintf(w, "# HELP squid_wal_failed 1 when the log is poisoned by a write or fsync failure and refuses appends.\n")
		fmt.Fprintf(w, "# TYPE squid_wal_failed gauge\n")
		fmt.Fprintf(w, "squid_wal_failed %d\n", failed)
	}

	fmt.Fprintf(w, "# HELP squid_request_duration_seconds Request latency by route.\n")
	fmt.Fprintf(w, "# TYPE squid_request_duration_seconds histogram\n")
	for _, route := range routeKeys {
		m.mu.Lock()
		h := m.latency[route]
		m.mu.Unlock()
		renderHistogram(w, "squid_request_duration_seconds", "route", route, h)
	}

	m.phaseMu.Lock()
	phaseKeys := make([]string, 0, len(m.phase))
	for k := range m.phase {
		phaseKeys = append(phaseKeys, k)
	}
	m.phaseMu.Unlock()
	sort.Strings(phaseKeys)
	if len(phaseKeys) > 0 {
		fmt.Fprintf(w, "# HELP squid_discover_phase_seconds Discovery latency by pipeline phase (leaf spans of the request trace; phases partition the request on the serial path).\n")
		fmt.Fprintf(w, "# TYPE squid_discover_phase_seconds histogram\n")
		for _, phase := range phaseKeys {
			m.phaseMu.Lock()
			h := m.phase[phase]
			m.phaseMu.Unlock()
			renderHistogram(w, "squid_discover_phase_seconds", "phase", phase, h)
		}
	}
}

type residentGauge struct {
	structure string
	bytes     int64
}

// residentSeries names the structures of squid_resident_bytes (and of
// the resident_bytes object of GET /v1/stats), in rendering order.
func residentSeries(r squid.ResidentBytes) []residentGauge {
	return []residentGauge{
		{"columns", r.Columns},
		{"derived_columns", r.DerivedColumns},
		{"hash_index", r.HashIndexBase + r.HashIndexTail},
		{"numeric_index", r.NumericIndex},
		{"basic_stats", r.BasicStats},
		{"derived_pairs", r.DerivedPairs},
		{"rowset_memos", r.RowSetMemos},
	}
}

// renderHistogram writes one labeled histogram series in the cumulative
// form the Prometheus exposition format expects.
func renderHistogram(w *strings.Builder, name, label, value string, h *latencyHistogram) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += h.buckets[i]
		fmt.Fprintf(w, "%s_bucket{%s=%q,le=%q} %d\n",
			name, label, value, strconv.FormatFloat(ub, 'g', -1, 64), cum)
	}
	cum += h.buckets[len(latencyBuckets)]
	fmt.Fprintf(w, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, cum)
	fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, label, value, h.sum)
	fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, label, value, h.count)
}
