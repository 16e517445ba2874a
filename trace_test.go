package squid

import (
	"context"
	"strings"
	"testing"

	"squid/internal/engine"
	"squid/internal/trace"
)

var traceExamples = []string{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"}

// TestDiscoverUntracedAddsNoAllocs pins the tracing contract's "disabled
// is free" half at the DiscoverContext level: threading a context that never
// saw a recorder (or saw only the zero Span, which NewContext drops)
// through the whole pipeline allocates exactly as much as the plain
// path — the instrumentation is inert without a recorder.
func TestDiscoverUntracedAddsNoAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("AllocsPerRun counts jitter under the race detector's instrumentation")
	}
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm the selectivity cache and every lazy structure first, so the
	// two measurements see identical state.
	for i := 0; i < 3; i++ {
		if _, err := sys.DiscoverContext(ctx, traceExamples); err != nil {
			t.Fatal(err)
		}
	}
	plain := testing.AllocsPerRun(50, func() {
		if _, err := sys.DiscoverContext(ctx, traceExamples); err != nil {
			t.Fatal(err)
		}
	})
	zeroSpan := testing.AllocsPerRun(50, func() {
		tctx := trace.NewContext(ctx, trace.Span{})
		if _, err := sys.DiscoverContext(tctx, traceExamples); err != nil {
			t.Fatal(err)
		}
	})
	if zeroSpan != plain {
		t.Errorf("zero-span context costs %.1f allocs/op, plain context %.1f: disabled tracing is not free", zeroSpan, plain)
	}
}

// TestExecuteUntracedAddsNoAllocs is the same half of the contract for
// Execute: every stage span of the executor (scan, join, cycle-join,
// aggregate, project) is inert without a recorder, label included.
func TestExecuteUntracedAddsNoAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("AllocsPerRun counts jitter under the race detector's instrumentation")
	}
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A plan that passes every stage: a cyclic join condition, GROUP BY,
	// DISTINCT.
	q := &Query{
		From: []string{"academics", "research"},
		Joins: []engine.Join{
			{LeftRel: "academics", LeftCol: "id", RightRel: "research", RightCol: "aid"},
			{LeftRel: "research", LeftCol: "aid", RightRel: "academics", RightCol: "id"},
		},
		Select:   []engine.ColRef{{Rel: "academics", Col: "name"}},
		GroupBy:  []engine.ColRef{{Rel: "academics", Col: "id"}},
		Distinct: true,
	}
	ctx := context.Background()
	run := func(ctx context.Context) func() {
		return func() {
			if res, err := sys.ExecuteContext(ctx, q); err != nil || res.NumRows() == 0 {
				t.Fatalf("empty result or error %v", err)
			}
		}
	}
	run(ctx)() // build whatever is lazy first
	plain := testing.AllocsPerRun(50, run(ctx))
	zeroSpan := testing.AllocsPerRun(50, run(trace.NewContext(ctx, trace.Span{})))
	if zeroSpan != plain {
		t.Errorf("zero-span context costs %.1f allocs/op, plain context %.1f: disabled tracing is not free", zeroSpan, plain)
	}
}

// TestTraceStructure pins the duration-free span structure (phase
// names, nesting, labels, counters) of a traced discovery on a fresh
// system. The fixture's example set resolves to a single candidate base
// query. At ρ = 0.2 it selects one filter, whose rowset span misses the
// fresh system's memo and so says what the build read: cells_streamed,
// the three postings of the filter's value.
func TestTraceStructure(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Params()
	p.Rho = 0.2
	sys.SetParams(p)
	rec := trace.NewRecorder(0)
	root := rec.Root(trace.PhaseDiscover, "")
	ctx := trace.NewContext(context.Background(), root)
	if _, err := sys.DiscoverContext(ctx, traceExamples); err != nil {
		t.Fatal(err)
	}
	root.End()
	tr := rec.Finish("discover", "")
	if tr.Dropped != 0 {
		t.Fatalf("dropped %d spans", tr.Dropped)
	}
	structure := tr.Structure()
	if !strings.Contains(structure, "candidate academics.name") {
		t.Fatalf("structure missing the single candidate span:\n%s", structure)
	}
	if n := strings.Count(structure, "candidate "); n != 1 {
		t.Fatalf("fixture resolved to %d candidates, want exactly 1:\n%s", n, structure)
	}
	// The contexts span says what the walks read: interest is seeded by
	// Dan Suciu's one research row, and the other two examples, with
	// two rows each, probe the one shared value's posting list; name is
	// seeded by Dan Suciu's own row, and Sam Madden's walk, one row,
	// leaves nothing shared.
	if want := "contexts {contexts=1 probes=2 properties=2 rows_walked=3}"; !strings.Contains(structure, want) {
		t.Fatalf("structure has no contexts span counting its reads, want %q:\n%s", want, structure)
	}
	if want := "rowset φ⟨interest,data management,⊥⟩ {cache_misses=1 cache_stores=1 cells_streamed=3 rows=3}"; !strings.Contains(structure, want) {
		t.Fatalf("structure has no rowset span saying what its miss read, want %q:\n%s", want, structure)
	}
}

// BenchmarkDiscoveryTracing measures the span recorder's cost on one
// end-to-end discovery: the disabled arm is the BenchmarkDiscovery
// baseline path (no recorder), the enabled arm pays one recorder
// allocation plus wait-free span begins per request.
func BenchmarkDiscoveryTracing(b *testing.B) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.DiscoverContext(ctx, traceExamples); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := trace.NewRecorder(0)
			root := rec.Root(trace.PhaseDiscover, "")
			if _, err := sys.DiscoverContext(trace.NewContext(ctx, root), traceExamples); err != nil {
				b.Fatal(err)
			}
			root.End()
			rec.Finish("discover", "")
		}
	})
}
