package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"squid"
	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/disambig"
	"squid/internal/engine"
	"squid/internal/index"
	"squid/internal/sqlgen"
	"squid/internal/trace"
	"squid/internal/wal"
)

// The traced run. It measures the workload twice for a few rounds, with
// the benchmark's spans off and on, and then climbs the boundary ladder:
// the same requests replayed at successive boundaries of the program,
// every call wrapped in a span. A layer's self time is its rung minus
// the rung below.
//
//	read    abduction.DiscoverCtx (timing Resolver around disambig.Resolve)
//	        -> System.DiscoverContext -> server.ServeHTTP into a
//	        ResponseRecorder -> loopback client
//	write   wal.Log.Append -> InsertBatchContext without a log -> with
//	        the log -> handler -> loopback client
//	offline generate -> adb.Build (default and Workers=1) -> Save -> Load
//	        -> RecoverWAL

// offline is what the set-up cycles measured, plus the extras only a
// traced run takes.
type offline struct {
	setupS, buildS, saveS, loadS float64
	snapBytes                    int64
	// burstMS is the median burst of the reference around the cycles.
	burstMS float64

	buildSerialS    float64
	heapBytesPerRow float64
	// noLog is a second system booted from the set-up snapshot with no
	// write-ahead log attached: the write ladder's rung below the log.
	noLog *squid.System
}

func (o *offline) fill(cycles []cycleTimes) {
	var total, build, save, load []float64
	for _, c := range cycles {
		total = append(total, c.total)
		build = append(build, c.build)
		save = append(save, c.save)
		load = append(load, c.load)
		o.snapBytes = c.snapBytes
	}
	o.setupS, o.buildS, o.saveS, o.loadS = median(total), median(build), median(save), median(load)
}

// measureExtras takes the offline ladder's remaining rungs: a serial
// build, and the heap one loaded system holds.
func (o *offline) measureExtras(in *inputs, st *stack) error {
	cfg := squid.DefaultBuildConfig()
	cfg.Workers = 1
	t := time.Now()
	if _, err := squid.Build(in.db, cfg); err != nil {
		return fmt.Errorf("serial build: %w", err)
	}
	o.buildSerialS = time.Since(t).Seconds()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var err error
	if o.noLog, err = loadSnapshot(st.snapPath); err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	o.heapBytesPerRow = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(in.rows)
	return nil
}

// ladder holds what the rungs measured. Read rungs keep one median per
// round, in microseconds; execute and write rungs keep every sample, in
// milliseconds.
type ladder struct {
	r      *runner
	rounds int
	seq    int64

	abductionWarm, abductionCold []float64 // resolver time excluded
	engineWarm                   []float64 // abduction.DiscoverCtx as a whole
	resolveMean                  []float64 // mean per discovery
	facade, recorded             []float64 // System.DiscoverContext, bare and with a recorder
	handler, loopback            []float64
	contexts, inverted, plan     []float64
	phases                       map[string][]float64 // mean per discovery
	respBytes                    []float64
	allocKB, mallocs             float64

	engineExec, handlerExec     []float64
	execRows, execAllocMB       float64
	insertNoLog, insertSingle   []float64
	insertLogged, insertHandler []float64
	insertLoopback              []float64
	insertAllocKBPerRow         float64
	walAppendUSPerRow           float64
	walBytesPerRow              float64
	walBarrierMS                float64
}

// reqID names one ladder call; spans of one call share it.
func (l *ladder) reqID(rung string) string {
	l.seq++
	return rung + strconv.FormatInt(l.seq, 10)
}

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func p50(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// readLadder replays the pool at every read boundary, l.rounds times.
func (l *ladder) readLadder(ctx context.Context) error {
	l.phases = map[string][]float64{}
	for round := 0; round < l.rounds; round++ {
		for _, rung := range []func(context.Context, bool) error{
			l.abductionRung, l.partsRung, l.facadeRung, l.recorderRung, l.handlerRung, l.loopbackRung,
		} {
			runtime.GC()
			if err := rung(ctx, false); err != nil {
				return err
			}
		}
		// The cold passes come last: they leave the cache as the next
		// round's first warm pass refills it, so replay the pool after.
		for _, rung := range []func(context.Context, bool) error{l.abductionRung, l.recorderRung} {
			runtime.GC()
			if err := rung(ctx, true); err != nil {
				return err
			}
		}
		if err := l.r.replayPool(ctx); err != nil {
			return err
		}
	}
	return nil
}

// abductionRung calls abduction.DiscoverCtx on the pinned epoch, with a
// Resolver that times disambig.Resolve so its share can be taken out.
func (l *ladder) abductionRung(ctx context.Context, cold bool) error {
	sys, spans := l.r.st.sys, l.r.spans
	ep, params, cache := sys.AlphaDB().Snapshot(), sys.Params(), sys.AlphaDB().SelectivityCache()
	var parent int64
	var id string
	var resolveNS time.Duration
	// Params.Workers is 1, so the resolver runs on this goroutine.
	resolver := func(info *adb.EntityInfo, candidates [][]int, p abduction.Params) []int {
		sid := spans.begin("disambig.Resolve", parent, id)
		rows := disambig.Resolve(info, candidates, p)
		resolveNS += spans.end(sid)
		return rows
	}
	var before, after runtime.MemStats
	if !cold {
		runtime.ReadMemStats(&before)
	}
	pool := l.r.in.pool
	self := make([]float64, 0, len(pool))
	whole := make([]float64, 0, len(pool))
	var resolveSum time.Duration
	for i := range pool {
		if cold {
			cache.Invalidate()
		}
		id, resolveNS = l.reqID("a"), 0
		parent = spans.begin("abduction.DiscoverCtx", 0, id)
		_, err := abduction.DiscoverCtx(ctx, ep, pool[i].Examples, params, resolver)
		d := spans.end(parent)
		l.r.count(err)
		if err != nil {
			return fmt.Errorf("abduction rung: %w", err)
		}
		self = append(self, usOf(d-resolveNS))
		whole = append(whole, usOf(d))
		resolveSum += resolveNS
	}
	if cold {
		l.abductionCold = append(l.abductionCold, p50(self))
		return nil
	}
	runtime.ReadMemStats(&after)
	l.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(pool))
	l.mallocs = float64(after.Mallocs-before.Mallocs) / float64(len(pool))
	l.abductionWarm = append(l.abductionWarm, p50(self))
	l.engineWarm = append(l.engineWarm, p50(whole))
	l.resolveMean = append(l.resolveMean, usOf(resolveSum)/float64(len(pool)))
	return nil
}

// partsRung times three parts of a discovery called directly: the
// inverted-index lookup of the examples, context discovery, and plan and
// SQL generation.
func (l *ladder) partsRung(ctx context.Context, _ bool) error {
	sys, spans := l.r.st.sys, l.r.spans
	ep, params := sys.AlphaDB().Snapshot(), sys.Params()
	pool := l.r.in.pool
	inverted := make([]float64, 0, len(pool))
	contexts := make([]float64, 0, len(pool))
	plans := make([]float64, 0, len(pool))
	for i := range pool {
		id := l.reqID("p")
		sid := spans.begin("index.CommonColumns", 0, id)
		matches := ep.CommonColumns(pool[i].Examples)
		inverted = append(inverted, usOf(spans.end(sid)))
		if len(matches) == 0 {
			return fmt.Errorf("parts rung: %s matches no column", pool[i].Intent)
		}
		results, err := abduction.DiscoverCtx(ctx, ep, pool[i].Examples, params, disambig.Resolve)
		l.r.count(err)
		if err != nil {
			return fmt.Errorf("parts rung: %w", err)
		}
		res := results[0]
		sid = spans.begin("abduction.DiscoverContexts", 0, id)
		abduction.DiscoverContexts(res.EntityInfo(), res.ExampleRows, params)
		contexts = append(contexts, usOf(spans.end(sid)))
		sid = spans.begin("sqlgen", 0, id)
		sql, original, q := sqlgen.AlphaSQL(res), sqlgen.OriginalSQL(res), sqlgen.ToEngineQuery(res)
		plans = append(plans, usOf(spans.end(sid)))
		if sql == "" || original == "" || q == nil {
			return fmt.Errorf("parts rung: %s produced no query", pool[i].Intent)
		}
	}
	l.inverted = append(l.inverted, p50(inverted))
	l.contexts = append(l.contexts, p50(contexts))
	l.plan = append(l.plan, p50(plans))
	return nil
}

// facadeRung calls System.DiscoverContext.
func (l *ladder) facadeRung(ctx context.Context, _ bool) error {
	sys, spans := l.r.st.sys, l.r.spans
	pool := l.r.in.pool
	lat := make([]float64, 0, len(pool))
	for i := range pool {
		sid := spans.begin("squid.DiscoverContext", 0, l.reqID("f"))
		_, err := sys.DiscoverContext(ctx, pool[i].Examples)
		lat = append(lat, usOf(spans.end(sid)))
		l.r.count(err)
		if err != nil {
			return fmt.Errorf("facade rung: %w", err)
		}
	}
	l.facade = append(l.facade, p50(lat))
	return nil
}

// recorderRung calls System.DiscoverContext with the program's own
// internal/trace recorder attached, as the server does for every
// request. Warm, it prices the recorder; cold, its PhaseTotals split
// the cold discovery.
func (l *ladder) recorderRung(ctx context.Context, cold bool) error {
	sys, spans := l.r.st.sys, l.r.spans
	cache := sys.AlphaDB().SelectivityCache()
	pool := l.r.in.pool
	lat := make([]float64, 0, len(pool))
	totals := map[string]time.Duration{}
	for i := range pool {
		if cold {
			cache.Invalidate()
		}
		id := l.reqID("t")
		sid := spans.begin("squid.DiscoverContext (recorder)", 0, id)
		rec := trace.NewRecorder(0)
		root := rec.Root(trace.PhaseDiscover, "")
		_, err := sys.DiscoverContext(trace.NewContext(ctx, root), pool[i].Examples)
		root.End()
		t := rec.Finish("discover", id)
		lat = append(lat, usOf(spans.end(sid)))
		l.r.count(err)
		if err != nil {
			return fmt.Errorf("recorder rung: %w", err)
		}
		if cold {
			for phase, d := range t.PhaseTotals() {
				totals[phase] += d
			}
		}
	}
	if !cold {
		l.recorded = append(l.recorded, p50(lat))
		return nil
	}
	for phase, d := range totals {
		l.phases[phase] = append(l.phases[phase], usOf(d)/float64(len(pool)))
	}
	return nil
}

// serveRecorded hands one request to the server's handler with a
// ResponseRecorder as the writer: everything the handler does, none of
// the transport.
func (l *ladder) serveRecorded(path string, body []byte) (time.Duration, *httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	sid := l.r.spans.begin("server.ServeHTTP (recorder) "+path, 0, l.reqID("h"))
	l.r.st.srv.ServeHTTP(w, req)
	d := l.r.spans.end(sid)
	var err error
	if w.Code != http.StatusOK {
		err = fmt.Errorf("handler %s: status %d: %s", path, w.Code, w.Body.String())
	}
	l.r.count(err)
	return d, w, err
}

func (l *ladder) handlerRung(_ context.Context, _ bool) error {
	pool := l.r.in.pool
	lat := make([]float64, 0, len(pool))
	for i := range pool {
		d, w, err := l.serveRecorded("/v1/discover", pool[i].body)
		if err != nil {
			return err
		}
		lat = append(lat, usOf(d))
		l.respBytes = append(l.respBytes, float64(w.Body.Len()))
	}
	l.handler = append(l.handler, p50(lat))
	return nil
}

// postSpanned sends one request from one loopback client under a client
// span; the handler wrapper records the server side as its child.
func (l *ladder) postSpanned(ctx context.Context, path string, body []byte) (time.Duration, error) {
	id := l.reqID("c")
	sid := l.r.spans.begin("client.POST "+path, 0, id)
	err := l.r.post(ctx, path, body, sid, id, nil)
	d := l.r.spans.end(sid)
	l.r.count(err)
	return d, err
}

func (l *ladder) loopbackRung(ctx context.Context, _ bool) error {
	pool := l.r.in.pool
	lat := make([]float64, 0, len(pool))
	for i := range pool {
		d, err := l.postSpanned(ctx, "/v1/discover", pool[i].body)
		if err != nil {
			return fmt.Errorf("loopback rung: %w", err)
		}
		lat = append(lat, usOf(d))
	}
	l.loopback = append(l.loopback, p50(lat))
	return nil
}

// executeLadder runs the plans on the engine directly and through the
// handler, turn about, so both rungs see the same heap states. Which rung
// goes first alternates with every plan and round: the second execution
// of a plan finds the caches the first one warmed, and a fixed order
// would bill that to one rung. A first, untimed round counts the rows and
// the allocation of an execution; reading the allocator's counters stops
// the world, so the timed rounds do without.
func (l *ladder) executeLadder(ctx context.Context) error {
	spans := l.r.spans
	ep := l.r.st.sys.AlphaDB().Snapshot()
	exec := engine.NewExecutorWithIndexes(ep.CombinedDB(), ep.Indexes)
	var rows int
	var allocated uint64
	for i := range l.r.plans {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := exec.ExecuteCtx(ctx, l.r.plans[i].query)
		runtime.ReadMemStats(&after)
		l.r.count(err)
		if err != nil {
			return fmt.Errorf("engine rung: %w", err)
		}
		rows += res.NumRows()
		allocated += after.TotalAlloc - before.TotalAlloc
		if _, _, err := l.serveRecorded("/v1/execute", l.r.plans[i].body); err != nil {
			return err
		}
	}
	l.execRows = float64(rows) / float64(len(l.r.plans))
	l.execAllocMB = float64(allocated) / (1 << 20) / float64(len(l.r.plans))

	runtime.GC()
	for round := 0; round < l.rounds; round++ {
		for i := range l.r.plans {
			engineRung := func() error {
				sid := spans.begin("engine.ExecuteCtx", 0, l.reqID("x"))
				_, err := exec.ExecuteCtx(ctx, l.r.plans[i].query)
				l.engineExec = append(l.engineExec, msOf(spans.end(sid)))
				l.r.count(err)
				if err != nil {
					return fmt.Errorf("engine rung: %w", err)
				}
				return nil
			}
			handlerRung := func() error {
				d, _, err := l.serveRecorded("/v1/execute", l.r.plans[i].body)
				l.handlerExec = append(l.handlerExec, msOf(d))
				return err
			}
			first, second := engineRung, handlerRung
			if (round+i)%2 != 0 {
				first, second = handlerRung, engineRung
			}
			if err := first(); err != nil {
				return err
			}
			if err := second(); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeLadder inserts batches at every write boundary, turn about: a
// batch allocates tens of megabytes of copy-on-write clones, so its time
// depends on where the collector is, and rungs measured one after the
// other would each see a different heap. Every call gets a fresh batch
// number, so no row is inserted twice into one system; each rung's first
// call is discarded (lazily built indexes, connections).
func (l *ladder) writeLadder(ctx context.Context, dir string, noLog *squid.System) error {
	r, spans := l.r, l.r.spans
	if err := l.walRungs(dir); err != nil {
		return err
	}
	insert := func(name string, sys *squid.System, ops []squid.InsertOp) (float64, error) {
		sid := spans.begin(name, 0, l.reqID("w"))
		err := sys.InsertBatchContext(ctx, ops)
		d := spans.end(sid)
		r.count(err)
		return msOf(d), err
	}
	var allocated uint64
	rungs := []struct {
		out *[]float64
		do  func(k int) (float64, error)
	}{
		{&l.insertNoLog, func(k int) (float64, error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ms, err := insert("squid.InsertBatchContext (no log)", noLog, r.in.insertBatch(k))
			runtime.ReadMemStats(&after)
			allocated += after.TotalAlloc - before.TotalAlloc
			return ms, err
		}},
		// One fact row: what a batch costs before its rows do, the
		// copy-on-write clone of the touched relations and the publish.
		{&l.insertSingle, func(k int) (float64, error) {
			return insert("squid.InsertBatchContext (no log, 1 row)", noLog, r.in.insertBatch(k)[:1])
		}},
		{&l.insertLogged, func(k int) (float64, error) {
			return insert("squid.InsertBatchContext", r.st.sys, r.in.insertBatch(k))
		}},
		{&l.insertHandler, func(k int) (float64, error) {
			body, err := r.in.insertBody(k)
			if err != nil {
				return 0, err
			}
			d, _, err := l.serveRecorded("/v1/insert/batch", body)
			return msOf(d), err
		}},
		{&l.insertLoopback, func(k int) (float64, error) {
			body, err := r.in.insertBody(k)
			if err != nil {
				return 0, err
			}
			d, err := l.postSpanned(ctx, "/v1/insert/batch", body)
			return msOf(d), err
		}},
	}
	calls := 0
	for round := -1; round < 2*l.rounds; round++ {
		for _, rung := range rungs {
			ms, err := rung.do(r.nextBatch)
			r.nextBatch++
			if err != nil {
				return fmt.Errorf("write ladder: %w", err)
			}
			if round >= 0 {
				*rung.out = append(*rung.out, ms)
			}
		}
		if round < 0 {
			allocated = 0
			continue
		}
		calls++
	}
	l.insertAllocKBPerRow = float64(allocated) / 1024 / float64(calls*insertBatchOps)
	return nil
}

// walRungs appends the run's batches to a log of their own, under the
// workloads' policy for the append cost and under the always policy for
// the barrier.
func (l *ladder) walRungs(dir string) error {
	spans := l.r.spans
	rows := func(k int) []wal.Row {
		ops := l.r.in.insertBatch(k)
		out := make([]wal.Row, len(ops))
		for i, op := range ops {
			out[i] = wal.Row{Rel: op.Rel, Vals: op.Vals}
		}
		return out
	}
	appendLog, _, err := wal.Open(filepath.Join(dir, "append.wal"), wal.Options{Policy: walPolicy})
	if err != nil {
		return err
	}
	var total time.Duration
	n := 4 * l.rounds
	for k := 0; k < n; k++ {
		batch := rows(k)
		sid := spans.begin("wal.Log.Append", 0, l.reqID("l"))
		err := appendLog.Append(uint64(k+1), batch)
		total += spans.end(sid)
		if err != nil {
			_ = appendLog.Close() // the append error is the one to report
			return err
		}
	}
	l.walAppendUSPerRow = usOf(total) / float64(n*insertBatchOps)
	l.walBytesPerRow = float64(appendLog.Metrics().Bytes) / float64(n*insertBatchOps)
	if err := appendLog.Close(); err != nil {
		return err
	}

	syncLog, _, err := wal.Open(filepath.Join(dir, "always.wal"), wal.Options{Policy: wal.PolicyAlways})
	if err != nil {
		return err
	}
	var barriers []float64
	for k := 0; k < l.rounds; k++ {
		if err := syncLog.Append(uint64(k+1), rows(k)); err != nil {
			_ = syncLog.Close() // the append error is the one to report
			return err
		}
		sid := spans.begin("wal.Log.Barrier (always)", 0, l.reqID("b"))
		err := syncLog.Barrier()
		barriers = append(barriers, msOf(spans.end(sid)))
		if err != nil {
			_ = syncLog.Close() // the barrier error is the one to report
			return err
		}
	}
	l.walBarrierMS = median(barriers)
	return syncLog.Close()
}

// rowSetAnd times Clone followed by AndWith over the row sets the
// selectivity cache holds, each with its neighbour in iteration order.
func rowSetAnd(cache *adb.SelCache) float64 {
	var sets []*index.RowSet
	cache.Range(func(_ adb.SelKey, s *index.RowSet) bool {
		sets = append(sets, s)
		return len(sets) < 256
	})
	if len(sets) < 2 {
		return 0
	}
	const reps = 20
	kept := 0
	t := time.Now()
	for rep := 0; rep < reps; rep++ {
		for i := 1; i < len(sets); i++ {
			c := sets[i-1].Clone()
			c.AndWith(sets[i])
			kept += c.Count()
		}
	}
	d := time.Since(t)
	if kept < 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(reps*(len(sets)-1))
}

// tracedRun is the body of a traced run; see the top of this file.
func (r *runner) tracedRun(ctx context.Context, cfg config, tmp string, off offline, g *gate, res *result) error {
	sys := r.st.sys
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	untraced, err := r.measure(ctx, minRounds)
	if err != nil {
		return err
	}
	r.spans.on.Store(true)
	traced, err := r.measure(ctx, minRounds)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	burstMS := r.ref.take()
	epochs := sys.AlphaDB().EpochStats()
	hitRate := 0.0
	if lookups := r.cacheHits + r.cacheMisses; lookups > 0 {
		hitRate = float64(r.cacheHits) / float64(lookups)
	}
	shed, errs := r.shed.Load(), r.errs.Load()

	if err := r.replayPool(ctx); err != nil {
		return err
	}
	cache := sys.AlphaDB().SelectivityCache()
	entries := cache.Len()
	resident, _ := cache.RowSetBytes()
	andNS := rowSetAnd(cache)

	l := &ladder{r: r, rounds: cfg.ladderRounds}
	if err := l.readLadder(ctx); err != nil {
		return err
	}
	if err := l.executeLadder(ctx); err != nil {
		return err
	}
	if err := l.writeLadder(ctx, tmp, off.noLog); err != nil {
		return err
	}
	replay, err := r.checkReplay(ctx, tmp, g)
	if err != nil {
		return err
	}
	r.spans.on.Store(false)
	if err := r.spans.write(spanPath(cfg), cfg.workload, cfg.seed); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}

	untracedP50, tracedP50 := median(untraced.p50MS), median(traced.p50MS)
	blockIQR := 0.0
	for _, c := range untraced.columns() {
		if v := 100 * iqrShare(c.xs); v > blockIQR {
			blockIQR = v
		}
	}

	// The read ladder, bottom up. Rungs are medians over rounds of the
	// round's median, so differences of neighbouring rungs telescope to
	// the top rung exactly.
	abdWarm, abdCold := median(l.abductionWarm), median(l.abductionCold)
	engine, facade, recorded := median(l.engineWarm), median(l.facade), median(l.recorded)
	handler, loopback := median(l.handler), median(l.loopback)
	rungs := []struct {
		layer string
		self  float64
	}{
		{"abduction (DiscoverCtx less the resolver)", abdWarm},
		{"disambig (Resolve inside DiscoverCtx)", engine - abdWarm},
		{"squid facade (epoch pin, SQL, output values)", facade - engine},
		{"server handler (decode, admission, recorder, response, encode)", handler - facade},
		{"transport (net/http server and client over loopback)", loopback - handler},
	}
	top := 3 // in-process workloads end at the facade
	if r.overHTTP {
		top = len(rungs)
	}
	var explained float64
	fmt.Fprintf(cfg.out, "read ladder (one client, warm cache, us; a layer's self time is its rung less the rung below)\n")
	for i, rung := range rungs {
		mark := " "
		if i < top {
			explained += rung.self
			mark = "*"
		}
		fmt.Fprintf(cfg.out, "  %s %-64s %10.1f\n", mark, rung.layer, rung.self)
	}
	unattributed := 1000*untracedP50 - explained
	fmt.Fprintf(cfg.out, "  * sum to the workload's boundary %.1f us; client-observed untraced discover_p50_ms %.1f us; unattributed %.1f us (%.1f%%)\n",
		explained, 1000*untracedP50, unattributed, 100*unattributed/(1000*untracedP50))
	fmt.Fprintf(cfg.out, "write ladder (ms, means of %d batches a rung): no log %.2f, logged %.2f, handler %.2f, loopback %.2f; one-row batch %.2f\n",
		len(l.insertNoLog), mean(l.insertNoLog), mean(l.insertLogged), mean(l.insertHandler), mean(l.insertLoopback), mean(l.insertSingle))
	fmt.Fprintf(cfg.out, "execute ladder (ms, means): engine %.2f, handler %.2f\n", mean(l.engineExec), mean(l.handlerExec))
	fmt.Fprintf(cfg.out, "spans       %d written to %s\n", len(r.spans.spans), spanPath(cfg))

	set := res.setter(true)
	rows := float64(r.in.rows)
	set("datagen.generate_s", r.in.generateS)
	set("adb.build_s", off.buildS)
	set("adb.build_serial_s", off.buildSerialS)
	set("adb.build_speedup", off.buildSerialS/off.buildS)
	set("adb.build_rows_per_s", rows/off.buildS)
	set("snapshot.save_s", off.saveS)
	set("snapshot.load_s", off.loadS)
	set("snapshot.bytes_per_row", float64(off.snapBytes)/rows)
	set("adb.heap_bytes_per_row", off.heapBytesPerRow)
	set("relation.bytes_per_row", float64(r.in.relBytes)/rows)

	set("abduction.discover_cold_us", abdCold)
	set("abduction.discover_warm_us", abdWarm)
	set("index.rowset_first_touch_us", abdCold-abdWarm)
	set("abduction.contexts_us", median(l.contexts))
	set("abduction.alloc_kb_per_discover", l.allocKB)
	set("abduction.mallocs_per_discover", l.mallocs)
	set("disambig.resolve_us", median(l.resolveMean))
	set("index.inverted_lookup_us", median(l.inverted))
	set("index.rowset_and_ns", andNS)
	set("adb.selcache_hit_rate", hitRate)
	set("adb.selcache_entries", float64(entries))
	set("adb.selcache_resident_kb", float64(resident)/1024)
	set("sqlgen.plan_us", median(l.plan))
	set("squid.facade_overhead_us", facade-engine)
	for _, phase := range []string{"resolve", "contexts", "selectivity", "abduce", "rowset", "intersect"} {
		set("phase."+phase+"_us", median(l.phases[phase]))
	}
	set("trace.recorder_overhead_pct", 100*(recorded-facade)/facade)

	set("engine.execute_ms", mean(l.engineExec))
	set("engine.execute_rows_out", l.execRows)
	set("engine.execute_alloc_mb", l.execAllocMB)

	set("adb.insert_batch_ms", mean(l.insertNoLog))
	set("adb.insert_single_ms", mean(l.insertSingle))
	set("adb.insert_alloc_kb_per_row", l.insertAllocKBPerRow)
	set("adb.epoch_publishes", float64(epochs.Publishes))
	set("adb.epoch_combines", float64(epochs.Combines))
	set("adb.epoch_retained_mb", float64(epochs.RetainedBytes)/(1<<20))
	set("wal.append_us_per_row", l.walAppendUSPerRow)
	set("wal.bytes_per_row", l.walBytesPerRow)
	set("wal.barrier_always_ms", l.walBarrierMS)
	set("wal.replay_rows_per_s", float64(replay.rows)/replay.seconds)

	set("server.discover_handler_us", handler-facade)
	set("server.discover_transport_us", loopback-handler)
	sizes := sortedCopy(l.respBytes)
	set("server.discover_resp_bytes_p50", percentile(sizes, 0.5))
	set("server.discover_resp_bytes_p99", percentile(sizes, 0.99))
	set("server.execute_handler_us", 1000*(mean(l.handlerExec)-mean(l.engineExec)))
	set("server.insert_handler_us", 1000*(mean(l.insertHandler)-mean(l.insertLogged)))
	// A handler cannot cost less than the call it wraps, but each is a
	// mean of a dozen calls that vary by more than the handler costs, so
	// on a busy machine the difference does come out negative. That says
	// something about the run's noise and nothing about the program's
	// outputs: it is noted in the report and does not fail the gate.
	for _, pair := range []struct {
		what          string
		handler, call []float64
	}{
		{"execute", l.handlerExec, l.engineExec},
		{"insert", l.insertHandler, l.insertLogged},
	} {
		if mean(pair.handler) < 0.9*mean(pair.call) {
			fmt.Fprintf(cfg.out, "NOTE        %s ladder: the handler rung (%.2f ms) came out below the call it wraps (%.2f ms); read server.%s_handler_us over several runs\n",
				pair.what, mean(pair.handler), mean(pair.call), pair.what)
		}
	}
	set("server.shed_429", float64(shed))
	set("server.errors", float64(errs))

	set("go.gc_cycles", float64(after.NumGC-before.NumGC))
	set("go.gc_pause_total_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	set("go.heap_peak_mb", float64(r.heapPeak)/(1<<20))

	set("bench.round_iqr_pct_max", blockIQR)
	set("bench.trace_overhead_pct", 100*(tracedP50-untracedP50)/untracedP50)
	set("bench.ladder_unattributed_pct", 100*unattributed/(1000*untracedP50))
	set("bench.loadavg1", loadAverage())
	set("bench.reference_ms", burstMS)

	for _, m := range perLayerSpecs {
		fmt.Fprintf(cfg.out, "%-34s %16.4f %-6s -> %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit, m.Moves)
	}
	return nil
}
