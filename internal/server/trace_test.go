package server

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"squid/internal/trace"
)

// TestDiscoverTraceEmbedding asserts the ?trace=1 contract: the
// response carries the request's span tree, its phase totals sum to
// within the request's wall time, and the trace is absent without the
// flag.
func TestDiscoverTraceEmbedding(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	var plain DiscoverResponse
	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, &plain); code != http.StatusOK {
		t.Fatalf("discover: status %d", code)
	}
	if plain.Trace != nil {
		t.Error("trace embedded without ?trace=1")
	}

	var traced DiscoverResponse
	if code := postJSON(t, c, ts.URL+"/v1/discover?trace=1", DiscoverRequest{Examples: exampleSet}, &traced); code != http.StatusOK {
		t.Fatalf("discover?trace=1: status %d", code)
	}
	tr := traced.Trace
	if tr == nil {
		t.Fatal("?trace=1 response carries no trace")
	}
	if tr.Kind != "discover" {
		t.Errorf("trace kind %q, want discover", tr.Kind)
	}
	if tr.RequestID == "" {
		t.Error("trace has no request id")
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Phase != "discover" {
		t.Fatalf("want one discover root span, got %+v", tr.Spans)
	}
	if len(tr.Spans[0].Children) == 0 {
		t.Error("discover root has no phase children")
	}
	var sum float64
	for _, ms := range tr.PhaseMS {
		sum += ms
	}
	if sum <= 0 {
		t.Errorf("phase totals sum %v, want > 0", sum)
	}
	if sum > tr.WallMS {
		t.Errorf("phase totals sum %.4fms exceeds wall %.4fms", sum, tr.WallMS)
	}
	if traced.WallMS < tr.WallMS {
		t.Errorf("trace wall %.4fms exceeds request wall %.4fms", tr.WallMS, traced.WallMS)
	}
	for _, phase := range []string{"resolve", "candidate"} {
		if _, ok := findSpan(tr.Spans, phase); !ok {
			t.Errorf("span tree missing phase %q: %+v", phase, tr.Spans)
		}
	}
}

// TestExecuteTraceEmbedding asserts ?trace=1 on /v1/execute: the
// executor's stages come back under the execute root in the order they
// ran — a reduce stage first when the plan's filters were read from the
// αDB's row sets — scans and joins carrying est_rows next to rows, the
// trace is absent without the flag, and /debug/traces and /metrics say
// which road answered.
func TestExecuteTraceEmbedding(t *testing.T) {
	sys := newTestSystem(t)
	ts := httptest.NewServer(New(sys, Config{}))
	defer ts.Close()
	c := ts.Client()

	// Two researchers whose shared interest the default parameters keep
	// as a filter.
	var disc DiscoverResponse
	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: []string{"Sam Madden", "Joseph Hellerstein"}}, &disc); code != http.StatusOK {
		t.Fatalf("discover: status %d", code)
	}
	var plain, traced ExecuteResponse
	if code := postJSON(t, c, ts.URL+"/v1/execute", ExecuteRequest{Query: disc.Query}, &plain); code != http.StatusOK {
		t.Fatalf("execute: status %d", code)
	}
	if plain.Trace != nil {
		t.Error("trace embedded without ?trace=1")
	}
	if code := postJSON(t, c, ts.URL+"/v1/execute?trace=1", ExecuteRequest{Query: disc.Query}, &traced); code != http.StatusOK {
		t.Fatalf("execute?trace=1: status %d", code)
	}
	tr := traced.Trace
	if tr == nil || tr.Kind != "execute" || len(tr.Spans) != 1 {
		t.Fatalf("want one execute trace with one root, got %+v", tr)
	}
	// The discovered plan is one attribute-table filter: the reduce stage
	// answers it from the filter's row set (a memo hit, the discovery
	// built it), and what is left is a scan of those academics.
	stages := tr.Spans[0].Children
	if len(stages) != 3 || stages[0].Label != "reduce:academics" || stages[1].Label != "scan:academics" || stages[2].Label != "project" {
		t.Fatalf("stages should run reduce, scan, project over academics, got %+v", stages)
	}
	if red := stages[0]; red.Counters["filters"] != 1 || red.Counters["rows"] != int64(traced.NumRows) ||
		len(red.Children) != 1 || red.Children[0].Phase != "rowset" || red.Children[0].Counters["cache_hits"] != 1 {
		t.Errorf("reduce stage %+v, want one filter read from its memoized row set", red)
	}
	for i, sp := range stages {
		if i > 0 && sp.StartMS < stages[i-1].StartMS {
			t.Errorf("stage %q is listed before a stage that began earlier", stages[i-1].Label)
		}
		if label := sp.Label; strings.HasPrefix(label, "scan:") || strings.HasPrefix(label, "join:") {
			if _, ok := sp.Counters["est_rows"]; !ok {
				t.Errorf("stage %q carries no est_rows: %v", label, sp.Counters)
			}
		}
	}
	if got := stages[len(stages)-1].Counters["rows"]; got != int64(traced.NumRows) {
		t.Errorf("project stage counts %d rows, the response has %d", got, traced.NumRows)
	}

	// cells_streamed says which stage read a column without an index and
	// how much of it: this join selects from research and is not
	// DISTINCT, so no reduce stage touches it, and it probes the epoch's
	// resident index over research.aid, a fact's foreign key: it streams
	// no cell and emits every research row.
	join := QueryJSON{
		From:   []string{"academics", "research"},
		Joins:  []JoinJSON{{LeftRel: "academics", LeftCol: "id", RightRel: "research", RightCol: "aid"}},
		Select: []ColRefJSON{{Rel: "research", Col: "interest"}},
	}
	var joined ExecuteResponse
	if code := postJSON(t, c, ts.URL+"/v1/execute?trace=1", ExecuteRequest{Query: join}, &joined); code != http.StatusOK {
		t.Fatalf("execute?trace=1 of the join: status %d", code)
	}
	facts := int64(sys.ExecutableDB().Relation("research").NumRows())
	stages = joined.Trace.Spans[0].Children
	if len(stages) != 3 || stages[1].Label != "join:research" || stages[1].Counters["cells_streamed"] != 0 || stages[1].Counters["rows"] != facts {
		var got []string
		for _, sp := range stages {
			got = append(got, fmt.Sprintf("%s %v", sp.Label, sp.Counters))
		}
		t.Fatalf("want scan:academics, a join:research that probed an index for %d rows, project; got %q", facts, got)
	}

	// Which road answered is on /debug/traces and /metrics too.
	var recent DebugTracesResponse
	if code := getJSON(t, c, ts.URL+"/debug/traces", &recent); code != http.StatusOK {
		t.Fatalf("debug/traces: status %d", code)
	}
	reduced := 0
	for _, tr := range recent.Traces {
		if tr.Kind == "execute" && tr.Spans[0].Children[0].Label == "reduce:academics" {
			reduced++
		}
	}
	if reduced != 2 {
		t.Errorf("/debug/traces shows %d executions with a reduce stage, want the plan's 2", reduced)
	}
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, needle := range []string{
		`squid_execute_blocks_total{reduced="all"} 2`,
		`squid_execute_blocks_total{reduced="part"} 0`,
		`squid_execute_blocks_total{reduced="none"} 1`,
	} {
		if !strings.Contains(string(body), needle) {
			t.Errorf("metrics exposition missing %q", needle)
		}
	}
}

func findSpan(spans []*trace.SpanJSON, phase string) (*trace.SpanJSON, bool) {
	for _, sp := range spans {
		if sp.Phase == phase {
			return sp, true
		}
		if sub, ok := findSpan(sp.Children, phase); ok {
			return sub, true
		}
	}
	return nil, false
}

// TestRequestIDHeader asserts the request-id middleware: minted ids are
// echoed and distinct across requests, and a client-supplied id is
// respected.
func TestRequestIDHeader(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := c.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rid := resp.Header.Get("X-Request-Id")
		if rid == "" {
			t.Fatal("no X-Request-Id on response")
		}
		if seen[rid] {
			t.Fatalf("request id %q repeated", rid)
		}
		seen[rid] = true
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "client-chosen-42")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-chosen-42" {
		t.Errorf("client-supplied id not echoed: got %q", got)
	}
}

// TestDebugTraces asserts the trace ring surface: every API request
// lands a trace, newest first, and the slow view plus the structured
// slow-query log line fire exactly when the threshold is crossed.
func TestDebugTraces(t *testing.T) {
	sys := newTestSystem(t)
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))

	// Threshold of 1ns: every request is slow, so the slow path is
	// exercised deterministically.
	srv := New(sys, Config{Logger: logger, SlowQueryThreshold: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	for i := 0; i < 2; i++ {
		if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, nil); code != http.StatusOK {
			t.Fatalf("discover: status %d", code)
		}
	}
	var ins InsertResponse
	insert := InsertBatchRequest{Ops: []InsertRequest{
		{Rel: "research", Values: []any{100, "systems"}},
	}}
	if code := postJSON(t, c, ts.URL+"/v1/insert/batch", insert, &ins); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}

	var dbg DebugTracesResponse
	if code := getJSON(t, c, ts.URL+"/debug/traces", &dbg); code != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", code)
	}
	if dbg.Total != 3 {
		t.Errorf("total %d, want 3", dbg.Total)
	}
	if len(dbg.Traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(dbg.Traces))
	}
	// Newest first: the insert came last.
	if dbg.Traces[0].Kind != "insert" || dbg.Traces[1].Kind != "discover" {
		t.Errorf("order not newest-first: %q, %q, %q",
			dbg.Traces[0].Kind, dbg.Traces[1].Kind, dbg.Traces[2].Kind)
	}
	for _, tr := range dbg.Traces {
		if !tr.Slow {
			t.Errorf("%s trace not marked slow under 1ns threshold", tr.Kind)
		}
		if tr.RequestID == "" {
			t.Errorf("%s trace has no request id", tr.Kind)
		}
	}

	var slow DebugTracesResponse
	if code := getJSON(t, c, ts.URL+"/debug/traces?slow=1&n=2", &slow); code != http.StatusOK {
		t.Fatalf("/debug/traces?slow=1: status %d", code)
	}
	if len(slow.Traces) != 2 {
		t.Errorf("slow view with n=2 returned %d traces", len(slow.Traces))
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "slow query") {
		t.Errorf("no slow-query log line emitted:\n%s", logs)
	}
	if !strings.Contains(logs, dbg.Traces[0].RequestID) {
		t.Errorf("slow-query log missing request id %q:\n%s", dbg.Traces[0].RequestID, logs)
	}
}

// TestDebugTracesNotSlow asserts the default threshold leaves fast
// requests unmarked and the slow view empty.
func TestDebugTracesNotSlow(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, Config{}) // default 1s threshold: nothing here is slow
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, nil); code != http.StatusOK {
		t.Fatalf("discover: status %d", code)
	}
	var dbg DebugTracesResponse
	if code := getJSON(t, c, ts.URL+"/debug/traces?slow=1", &dbg); code != http.StatusOK {
		t.Fatalf("/debug/traces: status %d", code)
	}
	if len(dbg.Traces) != 0 {
		t.Errorf("slow view has %d traces under the 1s threshold", len(dbg.Traces))
	}
	if dbg.SlowQueryThresholdMS != 1000 {
		t.Errorf("threshold %vms, want 1000", dbg.SlowQueryThresholdMS)
	}
}

// TestMetricsPhaseHistograms asserts /metrics grows the per-phase
// discovery histograms and the build-info gauge after traffic.
func TestMetricsPhaseHistograms(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, nil); code != http.StatusOK {
		t.Fatalf("discover: status %d", code)
	}
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, "squid_build_info{") {
		t.Error("/metrics missing squid_build_info")
	}
	for _, phase := range []string{"resolve", "selectivity", "abduce", "intersect"} {
		series := `squid_discover_phase_seconds_count{phase="` + phase + `"}`
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}
