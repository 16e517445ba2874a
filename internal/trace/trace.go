// Package trace is squid's wait-free, allocation-conscious span
// recorder: the per-request attribution layer the serving stack and the
// bench harness share. The paper's experiments (§7) break discovery
// latency into phases — candidate enumeration, semantic-context
// discovery, selectivity computation, filter intersection — and this
// package makes the same breakdown observable per production request.
//
// The contract, mirroring the rest of the codebase's "state it, then
// machine-check it" convention:
//
//   - Disabled is free. A zero Span (no recorder) is the library
//     default; every method on it is a nil-check and a return, the
//     context plumbing stores nothing, and an allocation benchmark
//     asserts the whole DiscoverContext path adds 0 allocs/op without a
//     recorder.
//   - Enabled is wait-free. Begin claims a preallocated slot with one
//     atomic increment; counters are atomic adds; no span operation
//     takes a lock or blocks another goroutine — instrumentation can
//     ride the intra-discovery worker pool without serializing it.
//   - Structure is deterministic. Span structure (phases, nesting,
//     labels, counters) is byte-identical across Params.Workers
//     settings; only durations vary. Structure renders exactly that
//     duration-free form, and a test asserts the byte identity.
//
// A span that outlives its recorder's capacity is dropped (counted in
// Trace.Dropped), never reallocated: overflow degrades visibility, not
// latency.
package trace

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Phase types a span: which stage of the online path it measures. The
// enum order is the canonical rendering order of sibling spans.
type Phase uint8

const (
	// PhaseDiscover is the root of one discovery request.
	PhaseDiscover Phase = iota
	// PhaseResolve is candidate base-query enumeration: the inverted
	// index resolving examples to (relation, column) matches.
	PhaseResolve
	// PhaseCandidate groups one candidate base query's abduction.
	PhaseCandidate
	// PhaseContexts is semantic-context discovery (§6.1.2).
	PhaseContexts
	// PhaseSelectivity is the candidate-filter selectivity prefetch.
	PhaseSelectivity
	// PhaseAbduce is Algorithm 1's serial decision loop.
	PhaseAbduce
	// PhaseRows groups the selected filters' row-set prefetch.
	PhaseRows
	// PhaseRowSet is one selected filter's row-set materialization.
	PhaseRowSet
	// PhaseIntersect is the selectivity-ordered bitset intersection.
	PhaseIntersect
	// PhaseExecute is the root of one engine plan execution.
	PhaseExecute
	// PhaseStage is one engine executor stage (reduce, scan, join,
	// aggregate, project), labeled with the stage's relation.
	PhaseStage
	// PhaseInsert is the root of one insert request.
	PhaseInsert
	// PhasePublishWait is time spent waiting on the αDB's write lock
	// before a copy-on-write apply may start.
	PhasePublishWait
	// PhaseApply is the copy-on-write apply of an insert batch.
	PhaseApply
	// PhasePublish is the epoch publish: the new epoch's pointer swap.
	PhasePublish
	// PhaseWALAppend is the write-ahead-log append inside the publish.
	PhaseWALAppend
	// PhaseWALBarrier is the WAL durability barrier an acknowledged
	// insert waits on.
	PhaseWALBarrier

	numPhases
)

var phaseNames = [numPhases]string{
	"discover", "resolve", "candidate", "contexts", "selectivity",
	"abduce", "rows", "rowset", "intersect", "execute", "stage",
	"insert", "publish_wait", "apply", "publish", "wal_append",
	"wal_barrier",
}

// String returns the phase's wire name (the `phase` label of
// squid_discover_phase_seconds and the `phase` field of trace JSON).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Counter types a per-span counter.
type Counter uint8

const (
	// CounterCandidates counts candidate (relation, column) matches.
	CounterCandidates Counter = iota
	// CounterProperties counts semantic properties walked.
	CounterProperties
	// CounterContexts counts semantic contexts (candidate filters).
	CounterContexts
	// CounterSelected counts filters Algorithm 1 included.
	CounterSelected
	// CounterRows counts result rows of the span's stage.
	CounterRows
	// CounterCacheHits counts selectivity-cache hits under the span.
	CounterCacheHits
	// CounterCacheMisses counts selectivity-cache misses under the span.
	CounterCacheMisses
	// CounterCacheStores counts selectivity-cache stores under the span.
	CounterCacheStores
	// CounterEpochSeq records the pinned αDB epoch sequence number.
	CounterEpochSeq
	// CounterEstRows records the row estimate an engine stage was
	// ordered by, next to the CounterRows it then produced.
	CounterEstRows
	// CounterCellsStreamed counts what a stage read to build its
	// result: the column cells an engine scan or join read without an
	// index (0 on a join that probed one), and on a row-set build —
	// a selectivity-cache miss — the postings, index members or
	// (entity, strength) pairs it walked.
	CounterCellsStreamed
	// CounterFilters counts the filter groups an executed block's
	// reduce stage answered from the αDB's row sets instead of joining.
	CounterFilters
	// CounterPairsBumped counts the (entity, value) strengths of derived
	// properties an insert batch raised, second-hop ones included.
	CounterPairsBumped

	numCounters
)

var counterNames = [numCounters]string{
	"candidates", "properties", "contexts", "selected", "rows",
	"cache_hits", "cache_misses", "cache_stores", "epoch_seq", "est_rows",
	"cells_streamed", "filters", "pairs_bumped",
}

// String returns the counter's wire name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", uint8(c))
}

// DefaultCapacity is the recorder's span capacity when NewRecorder is
// given 0: generous for one discovery (a handful of candidates × a
// handful of phases plus per-filter row-set spans) while keeping a
// recorder allocation small and constant.
const DefaultCapacity = 512

// spanData is one recorded span. Each slot is written by the goroutine
// that began the span (begin/End) except counters, which concurrent
// workers bump atomically; readers (Finish) run strictly after the
// request's barriers.
type spanData struct {
	phase    Phase
	parent   int32 // slot index of the parent, -1 for roots
	label    string
	start    int64              // ns since recorder start (monotonic)
	dur      int64              // ns, set by End (atomic)
	counters [numCounters]int64 // atomic
}

// Recorder collects the spans of one request. Begin operations are
// wait-free: a slot claim is one atomic increment into a preallocated
// array, and overflow drops the span (counted) instead of growing.
// Create one per traced request with NewRecorder (or Reset a finished
// one), hand its root span to the pipeline via NewContext, and call
// Finish after the request's work has joined (all worker goroutines
// done) to extract the Trace.
type Recorder struct {
	start   time.Time
	spans   []spanData
	next    atomic.Int32
	dropped atomic.Int64
}

// NewRecorder creates a recorder with the given span capacity
// (0 = DefaultCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{start: time.Now(), spans: make([]spanData, capacity)}
}

// Reset readies a recorder whose trace has been extracted (Finish copies
// the spans out) for its next request, so a server can keep recorders in
// a pool instead of allocating the span array per request: the slots the
// last request used are cleared — and only those, the rest were never
// written — the start is restamped and the drop count zeroed. No span of
// the last request may still be in use.
func (r *Recorder) Reset() {
	clear(r.spans[:min(int(r.next.Load()), len(r.spans))])
	r.next.Store(0)
	r.dropped.Store(0)
	r.start = time.Now()
}

// Root begins a top-level span.
func (r *Recorder) Root(phase Phase, label string) Span {
	if r == nil {
		return Span{}
	}
	return r.begin(phase, -1, label)
}

func (r *Recorder) begin(phase Phase, parent int32, label string) Span {
	id := r.next.Add(1) - 1
	if int(id) >= len(r.spans) {
		r.dropped.Add(1)
		return Span{}
	}
	sd := &r.spans[id]
	sd.phase = phase
	sd.parent = parent
	sd.label = label
	atomic.StoreInt64(&sd.start, int64(time.Since(r.start)))
	return Span{r: r, id: id}
}

// Span is a handle on one recorded span — a small value, copied freely.
// The zero Span is the disabled recorder: every method on it is a
// nil-check and a return, so uninstrumented callers (and the whole
// library path without a server) pay nothing. Callers computing a label
// should guard the computation with Active, so the disabled path does
// not even concatenate the string.
type Span struct {
	r  *Recorder
	id int32
}

// Active reports whether the span records anything; use it to guard
// label construction or other trace-only work.
func (s Span) Active() bool { return s.r != nil }

// Child begins a sub-span. On the zero Span it is a no-op returning
// another zero Span, so instrumentation needs no conditionals.
func (s Span) Child(phase Phase, label string) Span {
	if s.r == nil {
		return Span{}
	}
	return s.r.begin(phase, s.id, label)
}

// End stamps the span's duration. Call exactly once, on every return
// path (the spanend analyzer machine-checks this); End on the zero Span
// is a no-op.
func (s Span) End() {
	if s.r == nil {
		return
	}
	sd := &s.r.spans[s.id]
	atomic.StoreInt64(&sd.dur, int64(time.Since(s.r.start))-atomic.LoadInt64(&sd.start))
}

// Add bumps a counter on the span; safe from concurrent workers.
func (s Span) Add(c Counter, delta int64) {
	if s.r == nil || delta == 0 {
		return
	}
	atomic.AddInt64(&s.r.spans[s.id].counters[c], delta)
}

// ctxKey carries a Span through a context. The key is a zero-size type:
// the lookup on an untraced context allocates nothing.
type ctxKey struct{}

// NewContext attaches a span to ctx. Attaching the zero Span returns
// ctx unchanged — the disabled path allocates no context wrapper.
func NewContext(ctx context.Context, s Span) context.Context {
	if s.r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFrom returns the span attached to ctx, or the zero Span. The
// miss path performs no allocation, so untraced requests stay free.
func SpanFrom(ctx context.Context) Span {
	s, _ := ctx.Value(ctxKey{}).(Span)
	return s
}

// SpanInfo is one finalized span of a Trace.
type SpanInfo struct {
	Phase  Phase
	Label  string
	Parent int32 // index into Trace.Spans, -1 for roots
	Start  time.Duration
	Dur    time.Duration
	// Counters holds the span's nonzero counters by wire name.
	Counters map[string]int64
}

// Trace is one request's finalized span set, as stored in the ring and
// rendered over HTTP.
type Trace struct {
	// Kind names the request type ("discover", "execute", "insert").
	Kind string
	// RequestID is the serving layer's per-request id, when traced
	// through HTTP.
	RequestID string
	// Start is the recorder's creation time (wall clock); durations are
	// monotonic offsets from it.
	Start time.Time
	// Wall is the recorder's total lifetime (creation to Finish).
	Wall time.Duration
	// Slow marks traces past the serving layer's slow-query threshold.
	Slow bool
	// Dropped counts spans lost to recorder-capacity overflow.
	Dropped int64
	// Spans holds the recorded spans in begin order.
	Spans []SpanInfo
}

// Finish extracts the recorded spans into an immutable Trace. Call it
// only after the request's work has joined — every worker goroutine
// that touched the recorder must have finished (the pipeline's
// WaitGroup barriers provide this).
func (r *Recorder) Finish(kind, requestID string) *Trace {
	n := int(r.next.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	t := &Trace{
		Kind:      kind,
		RequestID: requestID,
		Start:     r.start,
		Wall:      time.Since(r.start),
		Dropped:   r.dropped.Load(),
		Spans:     make([]SpanInfo, n),
	}
	for i := 0; i < n; i++ {
		sd := &r.spans[i]
		info := SpanInfo{
			Phase:  sd.phase,
			Label:  sd.label,
			Parent: sd.parent,
			Start:  time.Duration(atomic.LoadInt64(&sd.start)),
			Dur:    time.Duration(atomic.LoadInt64(&sd.dur)),
		}
		for c := Counter(0); c < numCounters; c++ {
			if v := atomic.LoadInt64(&sd.counters[c]); v != 0 {
				if info.Counters == nil {
					info.Counters = make(map[string]int64)
				}
				info.Counters[c.String()] = v
			}
		}
		t.Spans[i] = info
	}
	return t
}

// PhaseTotals sums the durations of the trace's leaf spans by phase.
// Only leaves count, so a grouping span (discover, candidate, rows)
// never double-counts its children's time; on a serial trace the totals
// partition the request and their sum is bounded by the wall time.
func (t *Trace) PhaseTotals() map[string]time.Duration {
	if len(t.Spans) == 0 {
		return nil
	}
	hasChild := make([]bool, len(t.Spans))
	for _, sp := range t.Spans {
		if sp.Parent >= 0 && int(sp.Parent) < len(hasChild) {
			hasChild[sp.Parent] = true
		}
	}
	out := make(map[string]time.Duration)
	for i, sp := range t.Spans {
		if !hasChild[i] {
			out[sp.Phase.String()] += sp.Dur
		}
	}
	return out
}

// children returns, per span index, the child indexes sorted by
// (phase, label, begin order) — the deterministic sibling order both
// renderings use. Executor stages are the exception: they run one
// after another, so their begin order is as deterministic as their
// labels and is the thing to show, the order the joins ran in. roots
// lists the top-level spans in the same order.
func (t *Trace) children() (kids [][]int32, roots []int32) {
	kids = make([][]int32, len(t.Spans))
	for i, sp := range t.Spans {
		if sp.Parent >= 0 && int(sp.Parent) < len(t.Spans) {
			kids[sp.Parent] = append(kids[sp.Parent], int32(i))
		} else {
			roots = append(roots, int32(i))
		}
	}
	less := func(list []int32) func(a, b int) bool {
		return func(a, b int) bool {
			x, y := t.Spans[list[a]], t.Spans[list[b]]
			if x.Phase != y.Phase {
				return x.Phase < y.Phase
			}
			if x.Label != y.Label && x.Phase != PhaseStage {
				return x.Label < y.Label
			}
			return list[a] < list[b]
		}
	}
	for i := range kids {
		sort.Slice(kids[i], less(kids[i]))
	}
	sort.Slice(roots, less(roots))
	return kids, roots
}

// Structure renders the duration-free form of the trace: phases,
// labels, nesting, and counters, with siblings in (phase, label) order
// and counters in name order. It is byte-identical across
// Params.Workers settings — the determinism contract the tests assert —
// because worker scheduling can only reorder span begin order, never
// the structure.
func (t *Trace) Structure() string {
	kids, roots := t.children()
	var b strings.Builder
	var walk func(id int32, depth int)
	walk = func(id int32, depth int) {
		sp := t.Spans[id]
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(sp.Phase.String())
		if sp.Label != "" {
			b.WriteByte(' ')
			b.WriteString(sp.Label)
		}
		if len(sp.Counters) > 0 {
			names := make([]string, 0, len(sp.Counters))
			for k := range sp.Counters {
				names = append(names, k)
			}
			sort.Strings(names)
			b.WriteString(" {")
			for i, k := range names {
				if i > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s=%d", k, sp.Counters[k])
			}
			b.WriteByte('}')
		}
		b.WriteByte('\n')
		for _, c := range kids[id] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// SpanJSON is the wire form of one span subtree.
type SpanJSON struct {
	Phase    string           `json:"phase"`
	Label    string           `json:"label,omitempty"`
	StartMS  float64          `json:"start_ms"`
	DurMS    float64          `json:"dur_ms"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*SpanJSON      `json:"children,omitempty"`
}

// TraceJSON is the wire form of a Trace: the span tree plus the
// leaf-phase duration totals, whose sum is bounded by wall_ms on serial
// traces (the `?trace=1` acceptance check).
type TraceJSON struct {
	Kind         string             `json:"kind"`
	RequestID    string             `json:"request_id,omitempty"`
	StartUnixMS  int64              `json:"start_unix_ms"`
	WallMS       float64            `json:"wall_ms"`
	Slow         bool               `json:"slow,omitempty"`
	DroppedSpans int64              `json:"dropped_spans,omitempty"`
	PhaseMS      map[string]float64 `json:"phase_ms,omitempty"`
	Spans        []*SpanJSON        `json:"spans"`
}

// JSON renders the trace for HTTP responses and artifacts.
func (t *Trace) JSON() *TraceJSON {
	out := &TraceJSON{
		Kind:         t.Kind,
		RequestID:    t.RequestID,
		StartUnixMS:  t.Start.UnixMilli(),
		WallMS:       ms(t.Wall),
		Slow:         t.Slow,
		DroppedSpans: t.Dropped,
	}
	if totals := t.PhaseTotals(); len(totals) > 0 {
		out.PhaseMS = make(map[string]float64, len(totals))
		for k, v := range totals {
			out.PhaseMS[k] = ms(v)
		}
	}
	kids, roots := t.children()
	var build func(id int32) *SpanJSON
	build = func(id int32) *SpanJSON {
		sp := t.Spans[id]
		j := &SpanJSON{
			Phase:    sp.Phase.String(),
			Label:    sp.Label,
			StartMS:  ms(sp.Start),
			DurMS:    ms(sp.Dur),
			Counters: sp.Counters,
		}
		for _, c := range kids[id] {
			j.Children = append(j.Children, build(c))
		}
		return j
	}
	for _, r := range roots {
		out.Spans = append(out.Spans, build(r))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
