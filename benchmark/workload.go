package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"squid"
)

// runner drives one workload against one booted stack. All traffic is
// closed loop: a client sends its next request when the previous one
// has been answered, as a SQuID user waits for the abduced query before
// refining the examples.
type runner struct {
	workload string
	in       *inputs
	st       *stack
	// spans, when set and on, records a span around every operation.
	spans *spanLog
	// ref runs a burst before every timed block; see reference.go.
	ref *reference
	// tail is the percentile discover_p99_ms reports: 0.99, lower only in
	// the smoke test, whose pool is a few dozen requests.
	tail float64

	// overHTTP sends operations through the loopback listener instead of
	// calling the System; cold invalidates the selectivity cache before
	// every discovery; rewarm replays the pool untimed after each insert
	// block so the next discover block starts with a hot cache.
	overHTTP, cold, rewarm bool
	clients                int

	plans []plan
	// nextBatch numbers the insert batches of the run; readCursor is
	// where ingest_read's readers continue in the pool.
	nextBatch  int
	readCursor atomic.Int64

	attempted, failed, shed, errs atomic.Int64
	// cacheHits and cacheMisses are the selectivity cache's counters
	// summed over the discover blocks only.
	cacheHits, cacheMisses uint64
	heapPeak               uint64
}

// plan is one executable query of the execute block.
type plan struct {
	intent string
	query  *squid.Query
	body   []byte // POST /v1/execute body
}

func newRunner(cfg config, in *inputs, st *stack, spans *spanLog, ref *reference) *runner {
	workload := cfg.workload
	r := &runner{workload: workload, in: in, st: st, spans: spans, ref: ref, tail: cfg.tail, clients: 1}
	switch workload {
	case "intent_cold":
		r.cold = true
	case "intent_warm":
		r.rewarm = true
	case "serve_http":
		r.overHTTP, r.rewarm, r.clients = true, true, numClients()
	case "ingest_read":
		r.overHTTP, r.clients = true, numClients()
	}
	return r
}

var errShed = errors.New("shed with 429")

// count books one finished operation.
func (r *runner) count(err error) {
	r.attempted.Add(1)
	if err == nil {
		return
	}
	r.failed.Add(1)
	if errors.Is(err, errShed) {
		r.shed.Add(1)
	} else {
		r.errs.Add(1)
	}
}

// post sends one JSON request over loopback and reads the whole answer:
// decoded into out when given, drained otherwise. parent and reqID tie
// the server-side span of a traced run to the client's.
func (r *runner) post(ctx context.Context, path string, body []byte, parent int64, reqID string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.st.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := r.st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	// Drained, so the client has the whole answer and the connection is
	// reused.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests:
		return errShed
	}
	return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
}

// tracing reports whether operations record spans right now.
func (r *runner) tracing() bool { return r.spans != nil && r.spans.on.Load() }

// boundary names the call a workload's client makes for one operation.
type boundary struct{ inProcess, overHTTP string }

var (
	discoverBoundary = boundary{"squid.DiscoverContext", "client.POST /v1/discover"}
	executeBoundary  = boundary{"squid.ExecuteContext", "client.POST /v1/execute"}
	insertBoundary   = boundary{"squid.InsertBatchContext", "client.POST /v1/insert/batch"}
)

// timed runs one operation at the workload's boundary: it times f, books
// the outcome and, when tracing, records a span whose id f passes on to
// the server side. It returns the time in ms.
func (r *runner) timed(b boundary, reqID string, f func(span int64) error) (float64, error) {
	var id int64
	if r.tracing() {
		name := b.inProcess
		if r.overHTTP {
			name = b.overHTTP
		}
		id = r.spans.begin(name, 0, reqID)
	}
	t := time.Now()
	err := f(id)
	d := time.Since(t)
	if id != 0 {
		r.spans.end(id)
	}
	r.count(err)
	return msOf(d), err
}

// discover runs one discovery at the workload's boundary.
func (r *runner) discover(ctx context.Context, req *request, seq int64) (float64, error) {
	reqID := "d" + strconv.FormatInt(seq, 10)
	return r.timed(discoverBoundary, reqID, func(span int64) error {
		if r.overHTTP {
			return r.post(ctx, "/v1/discover", req.body, span, reqID, nil)
		}
		_, err := r.st.sys.DiscoverContext(ctx, req.Examples)
		return err
	})
}

// block is the client-side record of one discover block.
type block struct {
	latMS []float64
	wallS float64
}

// discoverBlock runs discoveries from readers closed-loop clients that
// share one schedule (a common cursor into the pool). With stop nil the
// block is one pass over the pool; otherwise clients keep going, across
// rounds, until stop is set and the block holds the samples its tail
// percentile needs, however fast the writer was.
func (r *runner) discoverBlock(ctx context.Context, readers int, stop *atomic.Bool) block {
	cache := r.st.sys.AlphaDB().SelectivityCache()
	hits0, misses0 := cache.Metrics()
	pool := r.in.pool
	var cursor atomic.Int64
	atLeast := int64(minSamplesFor(r.tail))
	next := func() (int64, bool) {
		if stop != nil {
			started := cursor.Add(1)
			return r.readCursor.Add(1) - 1, !stop.Load() || started <= atLeast
		}
		i := cursor.Add(1) - 1
		return i, i < int64(len(pool))
	}
	lats := make([][]float64, readers)
	var idle time.Duration
	client := func(c int) {
		local := make([]float64, 0, len(pool)/readers+1)
		for {
			i, ok := next()
			if !ok {
				break
			}
			if r.cold {
				// The repo's own definition of a cold discovery
				// (squid-bench -exp discover). Not billed to the block.
				t := time.Now()
				cache.Invalidate()
				idle += time.Since(t)
			}
			if ms, err := r.discover(ctx, &pool[i%int64(len(pool))], i); err == nil {
				local = append(local, ms)
			}
		}
		lats[c] = local
	}
	start := time.Now()
	if readers == 1 {
		client(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < readers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(c)
			}()
		}
		wg.Wait()
	}
	b := block{wallS: (time.Since(start) - idle).Seconds()}
	for _, l := range lats {
		b.latMS = append(b.latMS, l...)
	}
	hits1, misses1 := cache.Metrics()
	r.cacheHits += hits1 - hits0
	r.cacheMisses += misses1 - misses0
	return b
}

// executeBlock runs every plan once and returns the times in ms.
func (r *runner) executeBlock(ctx context.Context) []float64 {
	out := make([]float64, 0, len(r.plans))
	for i := range r.plans {
		p := &r.plans[i]
		reqID := "e" + strconv.FormatInt(r.attempted.Load(), 10)
		ms, err := r.timed(executeBoundary, reqID, func(span int64) error {
			if r.overHTTP {
				return r.post(ctx, "/v1/execute", p.body, span, reqID, nil)
			}
			res, err := r.st.sys.ExecuteContext(ctx, p.query)
			if err == nil && res.NumRows() == 0 {
				err = fmt.Errorf("execute %s: empty result", p.intent)
			}
			return err
		})
		if err == nil {
			out = append(out, ms)
		}
	}
	return out
}

// insertBlock sends n insert batches back to back and returns the
// acknowledgement times in ms. Batches are built outside the timed part.
func (r *runner) insertBlock(ctx context.Context, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for b := 0; b < n; b++ {
		k := r.nextBatch
		r.nextBatch++
		var ops []squid.InsertOp
		var body []byte
		if r.overHTTP {
			var err error
			if body, err = r.in.insertBody(k); err != nil {
				return nil, err
			}
		} else {
			ops = r.in.insertBatch(k)
		}
		reqID := "i" + strconv.Itoa(k)
		ms, err := r.timed(insertBoundary, reqID, func(span int64) error {
			if r.overHTTP {
				return r.post(ctx, "/v1/insert/batch", body, span, reqID, nil)
			}
			return r.st.sys.InsertBatchContext(ctx, ops)
		})
		if err == nil {
			out = append(out, ms)
		}
	}
	return out, nil
}

// replayPool runs the whole pool once in process, untimed, which leaves
// the selectivity cache hot for the current epoch.
func (r *runner) replayPool(ctx context.Context) error {
	for i := range r.in.pool {
		if _, err := r.st.sys.DiscoverContext(ctx, r.in.pool[i].Examples); err != nil {
			return fmt.Errorf("replay %s: %w", r.in.pool[i].Intent, err)
		}
	}
	return nil
}

// samples are the per-block statistics a measurement collects; the run
// reports the median of each column. A discover block contributes its
// median, its tail percentile and its throughput; an execute or insert
// block its mean per operation, because their few plans and batches
// would make a pooled median bimodal.
type samples struct {
	rounds int
	// tail is the percentile tailMS wants of every discover block;
	// fewest is the size of the smallest block, which decides whether
	// every block had the samples for it.
	tail      float64
	fewest    int
	p50MS     []float64
	tailMS    []float64
	perS      []float64
	executeMS []float64
	insertMS  []float64
	wallS     float64 // wall time of all rounds
}

// columns lists the timing columns with the names they print under.
func (s *samples) columns() []struct {
	name string
	xs   []float64
} {
	return []struct {
		name string
		xs   []float64
	}{{"p50", s.p50MS}, {"p99", s.tailMS}, {"per_s", s.perS}, {"execute", s.executeMS}, {"insert", s.insertMS}}
}

func (s *samples) addDiscover(b block) error {
	if len(b.latMS) == 0 {
		return fmt.Errorf("a discover block finished no discovery")
	}
	sorted := sortedCopy(b.latMS)
	if s.fewest == 0 || len(sorted) < s.fewest {
		s.fewest = len(sorted)
	}
	s.p50MS = append(s.p50MS, percentile(sorted, 0.5))
	s.tailMS = append(s.tailMS, percentile(sorted, s.tail))
	s.perS = append(s.perS, float64(len(sorted))/b.wallS)
	return nil
}

func (s *samples) addMean(col *[]float64, what string, ms []float64) error {
	if len(ms) == 0 {
		return fmt.Errorf("%s block finished no operation", what)
	}
	*col = append(*col, mean(ms))
	return nil
}

// round runs one round and adds its blocks' statistics to s. Every
// block follows a burst of the reference and an untimed GC, so neither
// the burst's garbage nor another class's is billed to it.
//
// On every workload but ingest_read a round is passes times a discover
// block (one pass over the pool) and an execute block (the plans), then
// one insert block, then an untimed settling step. On ingest_read the
// insert and discover blocks overlap by design: one client streams the
// batches while the others discover until it is done; the execute block
// follows.
func (r *runner) round(ctx context.Context, s *samples, passes int) error {
	start := time.Now()
	if r.workload == "ingest_read" {
		var stop atomic.Bool
		var ins []float64
		var insErr error
		done := make(chan struct{})
		r.beforeBlock()
		go func() {
			defer close(done)
			defer stop.Store(true)
			ins, insErr = r.insertBlock(ctx, ingestBlockBatches)
		}()
		readers := r.clients - 1
		if readers < 1 {
			readers = 1
		}
		disc := r.discoverBlock(ctx, readers, &stop)
		<-done
		r.sampleHeap()
		if insErr != nil {
			return insErr
		}
		if err := s.addDiscover(disc); err != nil {
			return err
		}
		if err := s.addMean(&s.insertMS, "insert", ins); err != nil {
			return err
		}
		r.beforeBlock()
		if err := s.addMean(&s.executeMS, "execute", r.executeBlock(ctx)); err != nil {
			return err
		}
	} else {
		for pass := 0; pass < passes; pass++ {
			r.beforeBlock()
			if err := s.addDiscover(r.discoverBlock(ctx, r.clients, nil)); err != nil {
				return err
			}
			r.sampleHeap()
			r.beforeBlock()
			if err := s.addMean(&s.executeMS, "execute", r.executeBlock(ctx)); err != nil {
				return err
			}
		}
		r.beforeBlock()
		ins, err := r.insertBlock(ctx, insertBlockBatches)
		if err != nil {
			return err
		}
		if err := s.addMean(&s.insertMS, "insert", ins); err != nil {
			return err
		}
		r.sampleHeap()
		// Settle, untimed, so that every block of the next round meets
		// the state its later blocks meet: the cache hot again for the
		// new epoch (warm workloads), the indexes the insert dropped
		// rebuilt by one execution of the plans, and an execute block
		// before the first discover block as before every other.
		// Reading straight after writing is ingest_read's subject.
		if r.rewarm {
			if err := r.replayPool(ctx); err != nil {
				return err
			}
		}
		if len(r.executeBlock(ctx)) != len(r.plans) {
			return fmt.Errorf("settling after the insert block: a plan failed")
		}
	}
	s.rounds++
	s.wallS += time.Since(start).Seconds()
	return nil
}

// beforeBlock is what precedes every timed block: one burst of the
// reference, then a collection.
func (r *runner) beforeBlock() {
	r.ref.burst()
	runtime.GC()
}

// sampleHeap keeps the largest live heap seen at block ends (before the
// next block's GC), for go.heap_peak_mb.
func (r *runner) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > r.heapPeak {
		r.heapPeak = ms.HeapAlloc
	}
}

// measure runs the given number of rounds and returns their statistics.
// The count is fixed before the run starts, never cut short or extended
// by the clock: two commits do the same operations on the same database
// states, however fast either is.
func (r *runner) measure(ctx context.Context, rounds int) (*samples, error) {
	s := &samples{tail: r.tail}
	for s.rounds < rounds {
		if err := r.round(ctx, s, passesPerRound); err != nil {
			return nil, err
		}
	}
	return s, nil
}
