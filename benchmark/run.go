package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"

	"squid/internal/buildinfo"
)

// config is one run's settings. Only workload, seed, seconds and traced
// come from the command line; the sizes below are fixed for real runs
// and shrunk by the smoke test.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	scale        int
	draws        int
	ladderRounds int
	// tail is the percentile behind discover_p99_ms, refSize the size of
	// the machine-speed reference.
	tail    float64
	refSize int
	// dir is where the run keeps its files: snapshots and log segments
	// in a temporary directory below it, removed when the run ends, and
	// the span file of a traced run.
	dir string
	// out receives the human-readable report.
	out io.Writer
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, as JSON.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload generates the inputs from the seed, boots the system,
// checks its outputs, measures one workload and reports every metric of
// the run's kind: the end-to-end ones untraced, the per-layer ones
// traced.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	if !workloadKnown(cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	printEnvironment(cfg)
	in, err := generateInputs(cfg.scale, cfg.draws, cfg.seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "inputs      %d rows generated in %.2f s, %d requests in the pool\n", in.rows, in.generateS, len(in.pool))

	var spans *spanLog
	var wrap func(http.Handler) http.Handler
	if cfg.traced {
		spans = newSpanLog()
		wrap = spans.wrapHandler
	}
	// A traced run climbs the HTTP rungs of the ladder on every workload.
	serve := cfg.traced || cfg.workload == "serve_http" || cfg.workload == "ingest_read"

	// The offline phase, setupCycles times, with bursts of the reference
	// around every cycle; traffic runs on the last booted stack. Earlier
	// stacks are shut down outside the timed part.
	ref := newReference(cfg.refSize)
	var cycles []cycleTimes
	var st *stack
	for c := 0; c < setupCycles; c++ {
		if st != nil {
			if err := st.close(ctx); err != nil {
				return nil, err
			}
		}
		for b := 0; b < setupBursts; b++ {
			ref.burst()
		}
		runtime.GC()
		var ct cycleTimes
		st, ct, err = offlineCycle(in.db, tmp, c, serve, wrap)
		if err != nil {
			return nil, fmt.Errorf("offline cycle %d: %w", c, err)
		}
		cycles = append(cycles, ct)
	}
	defer st.close(ctx)
	for b := 0; b < setupBursts; b++ {
		ref.burst()
	}

	var off offline
	off.fill(cycles)
	off.burstMS = ref.take()
	if cfg.traced {
		if err := off.measureExtras(in, st); err != nil {
			return nil, err
		}
	}
	// Nothing below needs the generated database; releasing it keeps it
	// out of heap_mb.
	in.db = nil

	r := newRunner(cfg, in, st, spans, ref)
	g := &gate{}
	fscore, err := r.checkPool(ctx, g)
	if err != nil {
		return nil, err
	}
	if err := r.preparePlans(ctx, g); err != nil {
		return nil, err
	}
	if r.overHTTP {
		if err := r.checkHTTP(ctx, g); err != nil {
			return nil, err
		}
	}
	// One discarded round of a single pass: connections open, lazily
	// built indexes exist, the heap has reached its working size.
	if err := r.round(ctx, &samples{tail: cfg.tail}, 1); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	ref.take()

	res := &result{Metrics: map[string]value{}}
	if cfg.traced {
		err = r.tracedRun(ctx, cfg, tmp, off, g, res)
	} else {
		err = r.untracedRun(ctx, cfg, tmp, off, fscore, g, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = r.attempted.Load(), r.failed.Load()
	checkDeclared(cfg.traced, res, g)
	for _, f := range g.failures {
		fmt.Fprintf(cfg.out, "FAILED      %s\n", f)
	}
	res.Correct = g.ok()
	return res, nil
}

// untracedRun measures the workload for the rounds cfg.seconds stands
// for and reports the end-to-end metrics, the timings at reference speed.
func (r *runner) untracedRun(ctx context.Context, cfg config, tmp string, off offline, fscore float64, g *gate, res *result) error {
	m, err := r.measure(ctx, measuredRounds(cfg.workload, cfg.seconds))
	if err != nil {
		return err
	}
	burstMS := r.ref.take()
	if tailQuantile(m.fewest, m.tail) != m.tail {
		g.failf("discover_p99_ms: the smallest discover block finished %d discoveries, which leaves %d beyond p%g where %d are needed: discoveries failed",
			m.fewest, samplesBeyond(m.fewest, m.tail), 100*m.tail, minBeyond)
	}
	if r.workload == "ingest_read" {
		if _, err := r.checkReplay(ctx, tmp, g); err != nil {
			return err
		}
	}
	r.ref.release()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(r.st)

	attempted, failed := r.attempted.Load(), r.failed.Load()
	raw := map[string]float64{
		"setup_s":         off.setupS,
		"discover_p50_ms": median(m.p50MS),
		"discover_p99_ms": median(m.tailMS),
		"discover_per_s":  median(m.perS),
		"execute_ms":      median(m.executeMS),
		"insert_batch_ms": median(m.insertMS),
	}
	set := res.setter(false)
	set("setup_s", atReference(raw["setup_s"], off.burstMS))
	for _, name := range []string{"discover_p50_ms", "discover_p99_ms", "execute_ms", "insert_batch_ms"} {
		set(name, atReference(raw[name], burstMS))
	}
	// A rate scales the other way.
	set("discover_per_s", raw["discover_per_s"]*burstMS/referenceNominalMS)
	set("heap_mb", float64(ms.HeapAlloc)/(1<<20))
	set("snapshot_mb", float64(off.snapBytes)/(1<<20))
	set("fscore_mean", fscore)
	set("ok_share", float64(attempted-failed)/float64(attempted))

	fmt.Fprintf(cfg.out, "measured    %d rounds in %.1f s: %d discover blocks of at least %d discoveries (tail percentile p%g, %d samples beyond it), %d execute blocks of %d plans, %d insert blocks of %d-row batches\n",
		m.rounds, m.wallS, len(m.p50MS), m.fewest, m.tail*100, samplesBeyond(m.fewest, m.tail), len(m.executeMS), len(r.plans), len(m.insertMS), insertBatchOps)
	fmt.Fprintf(cfg.out, "reference   a burst took %.2f ms during set-up and %.2f ms during the rounds (median); timings are reported at %g ms a burst\n",
		off.burstMS, burstMS, referenceNominalMS)
	for _, c := range m.columns() {
		fmt.Fprintf(cfg.out, "blocks      %-8s spread %5.1f%% ", c.name, 100*iqrShare(c.xs))
		for _, x := range c.xs {
			fmt.Fprintf(cfg.out, " %.4g", x)
		}
		fmt.Fprintln(cfg.out)
	}
	fmt.Fprintf(cfg.out, "operations  %d attempted, %d failed (%d shed with 429, %d errors)\n", attempted, failed, r.shed.Load(), r.errs.Load())
	for _, m := range endToEndSpecs {
		note := ""
		if v, ok := raw[m.Name]; ok {
			note = fmt.Sprintf(", as measured %.4f", v)
		}
		fmt.Fprintf(cfg.out, "%-28s %14.4f %-6s (%s is better, bound %g%s)\n", m.Name, res.Metrics[m.Name].Value, m.Unit, m.Better, m.Bound, note)
	}
	return nil
}

// declaredUnits maps the metric names a run of the given kind declares
// to their units.
func declaredUnits(traced bool) map[string]string {
	units := map[string]string{}
	if traced {
		for _, m := range perLayerSpecs {
			units[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEndSpecs {
			units[m.Name] = m.Unit
		}
	}
	return units
}

// setter returns the function a run reports its metrics with. A name
// the run's kind does not declare is reported all the same, without a
// unit, and checkDeclared fails the gate for it.
func (res *result) setter(traced bool) func(name string, v float64) {
	units := declaredUnits(traced)
	return func(name string, v float64) { res.Metrics[name] = value{v, units[name]} }
}

// checkDeclared fails the gate unless the run reports exactly the
// metrics its kind declares, each once (a map cannot hold one twice).
func checkDeclared(traced bool, res *result, g *gate) {
	want := declaredUnits(traced)
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			g.failf("declared metric %s was not reported", name)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			g.failf("metric %s is reported but not declared", name)
		}
	}
}

// printEnvironment prints the block every run starts with: what the
// numbers below it were measured on.
func printEnvironment(cfg config) {
	bi := buildinfo.Get()
	rev := bi.Revision
	if rev == "" {
		rev = "unknown"
	}
	if bi.Modified {
		rev += "+modified"
	}
	kind := "untraced: end-to-end metrics"
	if cfg.traced {
		kind = "traced: per-layer metrics"
	}
	fmt.Fprintf(cfg.out, "workload    %s (%s)\n", cfg.workload, kind)
	fmt.Fprintf(cfg.out, "environment nproc %d, GOMAXPROCS %d, %s %s/%s, revision %s, load average %.2f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), bi.GoVersion, runtime.GOOS, runtime.GOARCH, rev, loadAverage())
	fmt.Fprintf(cfg.out, "settings    scale %dx, seed %d, -seconds %g (%d measured rounds), WAL fsync policy %q, Params.Workers 1, %d client(s) at most\n",
		cfg.scale, cfg.seed, cfg.seconds, measuredRounds(cfg.workload, cfg.seconds), walPolicy, numClients())
}

// loadAverage is the machine's one-minute load average, 0 where
// /proc/loadavg does not exist.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	var l float64
	if _, err := fmt.Sscan(string(data), &l); err != nil {
		return 0
	}
	return l
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
}
