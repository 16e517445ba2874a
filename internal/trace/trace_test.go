package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledSpanIsFree asserts the whole disabled-path API — context
// miss, Child, Add, End, NewContext on a zero Span — performs zero
// allocations. This is the package-local half of the contract; the
// repo-level benchmark asserts the same through the full DiscoverContext path.
func TestDisabledSpanIsFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFrom(ctx)
		if sp.Active() {
			t.Fatal("span unexpectedly active")
		}
		child := sp.Child(PhaseResolve, "x")
		child.Add(CounterRows, 7)
		child.End()
		if NewContext(ctx, sp) != ctx {
			t.Fatal("NewContext must return ctx unchanged for a zero span")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestRecorderSpanTree(t *testing.T) {
	r := NewRecorder(0)
	root := r.Root(PhaseDiscover, "")
	res := root.Child(PhaseResolve, "")
	res.Add(CounterCandidates, 2)
	res.End()
	cand := root.Child(PhaseCandidate, "person.name")
	ctxs := cand.Child(PhaseContexts, "")
	ctxs.Add(CounterContexts, 5)
	ctxs.End()
	cand.End()
	root.End()

	tr := r.Finish("discover", "req-1")
	if tr.Kind != "discover" || tr.RequestID != "req-1" {
		t.Fatalf("trace identity = %q/%q", tr.Kind, tr.RequestID)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(tr.Spans))
	}
	if tr.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped)
	}
	want := "discover\n" +
		"  resolve {candidates=2}\n" +
		"  candidate person.name\n" +
		"    contexts {contexts=5}\n"
	if got := tr.Structure(); got != want {
		t.Fatalf("structure:\n%s\nwant:\n%s", got, want)
	}
	// Leaf-only totals: candidate and discover are containers here.
	totals := tr.PhaseTotals()
	if _, ok := totals["discover"]; ok {
		t.Fatal("container span counted in PhaseTotals")
	}
	for _, leaf := range []string{"resolve", "contexts"} {
		if _, ok := totals[leaf]; !ok {
			t.Fatalf("leaf phase %q missing from totals %v", leaf, totals)
		}
	}
	j := tr.JSON()
	if len(j.Spans) != 1 || j.Spans[0].Phase != "discover" {
		t.Fatalf("json roots = %+v", j.Spans)
	}
	var sum float64
	for _, v := range j.PhaseMS {
		sum += v
	}
	if sum > j.WallMS {
		t.Fatalf("phase_ms sum %.3f exceeds wall_ms %.3f", sum, j.WallMS)
	}
}

// TestStructureIgnoresBeginOrder asserts sibling order in Structure is
// (phase, label), not begin order — the property that makes structure
// byte-identical across worker schedules.
func TestStructureIgnoresBeginOrder(t *testing.T) {
	build := func(order []string) string {
		r := NewRecorder(0)
		root := r.Root(PhaseDiscover, "")
		for _, label := range order {
			c := root.Child(PhaseCandidate, label)
			c.End()
		}
		root.End()
		return r.Finish("discover", "").Structure()
	}
	a := build([]string{"person.name", "movie.title", "cast.role"})
	b := build([]string{"cast.role", "person.name", "movie.title"})
	if a != b {
		t.Fatalf("structure depends on begin order:\n%s\nvs\n%s", a, b)
	}
}

func TestNewRecorderDefaultCapacity(t *testing.T) {
	if r := NewRecorder(0); len(r.spans) != DefaultCapacity {
		t.Fatalf("NewRecorder(0) capacity %d, want DefaultCapacity %d", len(r.spans), DefaultCapacity)
	}
}

func TestRecorderOverflowDrops(t *testing.T) {
	r := NewRecorder(2)
	root := r.Root(PhaseDiscover, "")
	kept := root.Child(PhaseResolve, "")
	dropped := root.Child(PhaseAbduce, "")
	if dropped.Active() {
		t.Fatal("overflow span must be inactive")
	}
	dropped.Add(CounterRows, 1) // must be safe no-ops
	dropped.End()
	kept.End()
	root.End()
	tr := r.Finish("discover", "")
	if len(tr.Spans) != 2 || tr.Dropped != 1 {
		t.Fatalf("spans=%d dropped=%d, want 2/1", len(tr.Spans), tr.Dropped)
	}
}

// TestRecorderResetCarriesNothingOver reuses one recorder for a second,
// smaller request, after one that overflowed it: the second trace holds
// its own spans only — no label, counter, duration or drop count of the
// first — and starts its clock at the reset.
func TestRecorderResetCarriesNothingOver(t *testing.T) {
	r := NewRecorder(3)
	root := r.Root(PhaseInsert, "first")
	root.Add(CounterRows, 64)
	ap := root.Child(PhaseApply, "apply label")
	ap.Add(CounterCacheStores, 9)
	ap.End()
	root.Child(PhasePublish, "kept").End()
	root.Child(PhaseWALAppend, "dropped").End()
	root.End()
	if first := r.Finish("insert", "a"); len(first.Spans) != 3 || first.Dropped != 1 {
		t.Fatalf("first trace: spans=%d dropped=%d, want 3/1", len(first.Spans), first.Dropped)
	}
	time.Sleep(2 * time.Millisecond)
	reset := time.Now()
	r.Reset()
	root = r.Root(PhaseDiscover, "")
	root.Child(PhaseResolve, "").End()
	root.End()
	second := r.Finish("discover", "b")
	if got, want := second.Structure(), "discover\n  resolve\n"; got != want {
		t.Errorf("second trace is\n%swant\n%s", got, want)
	}
	if second.Dropped != 0 || second.Start.Before(reset) || second.Wall > time.Since(reset) {
		t.Errorf("second trace: dropped=%d start=%v wall=%v, want a trace that began at the reset", second.Dropped, second.Start, second.Wall)
	}
	// The third slot was the first request's alone; the reset left it
	// clean for whoever claims it next.
	if sd := r.spans[2]; sd.label != "" || sd.dur != 0 || sd.counters != [numCounters]int64{} {
		t.Errorf("slot past the second request's spans still holds %+v", sd)
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	root := r.Root(PhaseDiscover, "")
	ctx := NewContext(context.Background(), root)
	got := SpanFrom(ctx)
	if !got.Active() || got != root {
		t.Fatalf("SpanFrom = %+v, want the attached span", got)
	}
	root.End()
}

// TestRecorderConcurrentSpans drives one recorder from many goroutines
// (the worker-pool shape) under -race: concurrent Child claims,
// counter bumps on a shared parent, and Ends.
func TestRecorderConcurrentSpans(t *testing.T) {
	r := NewRecorder(1024)
	root := r.Root(PhaseDiscover, "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				sp := root.Child(PhaseRowSet, "w")
				sp.Add(CounterRows, 1)
				root.Add(CounterCacheHits, 1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	tr := r.Finish("discover", "")
	if len(tr.Spans) != 1+8*64 {
		t.Fatalf("got %d spans, want %d", len(tr.Spans), 1+8*64)
	}
	if got := tr.Spans[0].Counters["cache_hits"]; got != 8*64 {
		t.Fatalf("root cache_hits = %d, want %d", got, 8*64)
	}
}

// TestRingConcurrent hammers a small ring from concurrent writers and
// readers under -race; afterwards the ring must hold exactly the most
// recent traces.
func TestRingConcurrent(t *testing.T) {
	g := NewRing(8)
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				g.Put(&Trace{Kind: "discover", Start: time.Unix(0, int64(i))})
			}
		}()
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range g.Recent(0) {
				if tr.Kind != "discover" {
					t.Error("corrupt trace read from ring")
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()

	if g.Total() != 4*500 {
		t.Fatalf("total = %d, want %d", g.Total(), 4*500)
	}
	recent := g.Recent(0)
	if len(recent) != 8 {
		t.Fatalf("recent = %d traces, want 8", len(recent))
	}
	if got := g.Recent(3); len(got) != 3 {
		t.Fatalf("Recent(3) = %d traces", len(got))
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	g := NewRing(16)
	g.Put(&Trace{Kind: "a"})
	g.Put(&Trace{Kind: "b"})
	got := g.Recent(0)
	if len(got) != 2 || got[0].Kind != "b" || got[1].Kind != "a" {
		t.Fatalf("recent = %+v", got)
	}
}

func TestPhaseAndCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < numPhases; p++ {
		name := p.String()
		if name == "" || strings.HasPrefix(name, "phase(") || seen[name] {
			t.Fatalf("bad or duplicate phase name %q", name)
		}
		seen[name] = true
	}
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Fatalf("bad counter name %q", name)
		}
	}
}
