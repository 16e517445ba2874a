package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"squid"
	"squid/internal/iofault"
	"squid/internal/wal"
)

// academicsDB builds the Fig 1 database through the public API (the
// same fixture the root package tests use).
func academicsDB() *squid.Database {
	db := squid.NewDatabase("cs_academics")
	a := squid.NewRelation("academics",
		squid.Col("id", squid.Int),
		squid.Col("name", squid.String),
	).SetPrimaryKey("id")
	names := []string{"Thomas Cormen", "Dan Suciu", "Jiawei Han", "Sam Madden", "James Kurose", "Joseph Hellerstein"}
	for i, n := range names {
		a.MustAppend(squid.IntVal(int64(100+i)), squid.StringVal(n))
	}
	db.AddRelation(a)
	db.MarkEntity("academics")

	r := squid.NewRelation("research",
		squid.Col("aid", squid.Int),
		squid.Col("interest", squid.String),
	).AddForeignKey("aid", "academics", "id")
	rows := []struct {
		aid      int64
		interest string
	}{
		{100, "algorithms"}, {101, "data management"}, {102, "data mining"},
		{103, "data management"}, {103, "distributed systems"},
		{104, "computer networks"}, {105, "data management"}, {105, "distributed systems"},
	}
	for _, row := range rows {
		r.MustAppend(squid.IntVal(row.aid), squid.StringVal(row.interest))
	}
	db.AddRelation(r)
	return db
}

func newTestSystem(t *testing.T) *squid.System {
	t.Helper()
	sys, err := squid.Build(academicsDB(), squid.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// postJSON POSTs body as JSON and decodes the response into out,
// returning the status code.
func postJSON(t *testing.T, client *http.Client, url string, body, out any) int {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

var exampleSet = []string{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"}

func newLocalListener() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func TestServerEndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "academics.sqas")
	srv := New(sys, Config{SnapshotPath: snap})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	// Discovery over the network matches the in-process answer.
	var disc DiscoverResponse
	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet, Explain: true}, &disc); code != http.StatusOK {
		t.Fatalf("discover: status %d", code)
	}
	want, err := sys.DiscoverContext(context.Background(), exampleSet)
	if err != nil {
		t.Fatal(err)
	}
	if disc.SQL != want.SQL || disc.Entity != want.Entity || disc.Attribute != want.Attribute {
		t.Errorf("discover diverged from in-process: %+v", disc)
	}
	if !reflect.DeepEqual(disc.Output, want.Output) {
		t.Errorf("output %v want %v", disc.Output, want.Output)
	}
	if disc.Explain == "" || !strings.Contains(disc.Explain, "Algorithm 1") {
		t.Errorf("explain missing from response: %q", disc.Explain)
	}
	if disc.Explain != want.Explain() {
		t.Error("explain diverged from in-process Explain()")
	}

	// The returned plan executes over /v1/execute and reproduces the
	// discovery output.
	var exec ExecuteResponse
	if code := postJSON(t, c, ts.URL+"/v1/execute", ExecuteRequest{Query: disc.Query}, &exec); code != http.StatusOK {
		t.Fatalf("execute: status %d", code)
	}
	var got []string
	for _, row := range exec.Rows {
		if len(row) != 1 {
			t.Fatalf("execute row %v", row)
		}
		got = append(got, fmt.Sprint(row[0]))
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want.Output) {
		t.Errorf("execute rows %v want %v", got, want.Output)
	}

	// Batch discovery: healthy and failing sets side by side.
	var batch BatchDiscoverResponse
	req := BatchDiscoverRequest{Sets: [][]string{exampleSet, {"Nobody At All", "Equally Missing"}}}
	if code := postJSON(t, c, ts.URL+"/v1/discover/batch", req, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(batch.Results) != 2 || batch.Results[0] == nil || batch.Results[1] != nil {
		t.Fatalf("batch results shape wrong: %+v", batch.Results)
	}
	if batch.Results[0].SQL != want.SQL {
		t.Error("batch result diverged")
	}
	if batch.Errors[0] != "" || !strings.Contains(batch.Errors[1], "no entity attribute") {
		t.Errorf("batch errors %v", batch.Errors)
	}

	// Write path: a new academic plus facts, all over HTTP; the next
	// discovery includes the new row.
	var ins InsertResponse
	code := postJSON(t, c, ts.URL+"/v1/insert", InsertRequest{
		Rel: "academics", Values: []any{float64(200), "Grace Hopper"}}, &ins)
	if code != http.StatusOK || ins.Inserted != 1 {
		t.Fatalf("insert: status %d resp %+v", code, ins)
	}
	code = postJSON(t, c, ts.URL+"/v1/insert/batch", InsertBatchRequest{Ops: []InsertRequest{
		{Rel: "research", Values: []any{float64(200), "data management"}},
		{Rel: "research", Values: []any{float64(200), "distributed systems"}},
	}}, &ins)
	if code != http.StatusOK || ins.Inserted != 2 {
		t.Fatalf("insert batch: status %d resp %+v", code, ins)
	}
	var after DiscoverResponse
	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, &after); code != http.StatusOK {
		t.Fatalf("post-insert discover: status %d", code)
	}
	found := false
	for _, name := range after.Output {
		if name == "Grace Hopper" {
			found = true
		}
	}
	if !found {
		t.Errorf("post-insert discovery output %v misses the ingested row", after.Output)
	}

	// Bad writes are rejected with 400 and do not crash the server.
	var errResp ErrorResponse
	if code := postJSON(t, c, ts.URL+"/v1/insert", InsertRequest{Rel: "nope", Values: []any{1.0}}, &errResp); code != http.StatusBadRequest {
		t.Errorf("unknown relation insert: status %d", code)
	}
	if code := postJSON(t, c, ts.URL+"/v1/insert", InsertRequest{Rel: "academics", Values: []any{"x", "y"}}, &errResp); code != http.StatusBadRequest {
		t.Errorf("mistyped insert: status %d", code)
	}
	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: nil}, &errResp); code != http.StatusBadRequest {
		t.Errorf("no examples: status %d", code)
	}
	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: []string{"No Such Entity Anywhere"}}, &errResp); code != http.StatusUnprocessableEntity {
		t.Errorf("no entities: status %d", code)
	}
	// An oversized batch is rejected before taking the write lock.
	big := InsertBatchRequest{Ops: make([]InsertRequest, maxBatchOps+1)}
	for i := range big.Ops {
		big.Ops[i] = InsertRequest{Rel: "research", Values: []any{float64(100), "flood"}}
	}
	if code := postJSON(t, c, ts.URL+"/v1/insert/batch", big, &errResp); code != http.StatusBadRequest || errResp.Code != "batch_too_large" {
		t.Errorf("oversized batch: status %d code %q", code, errResp.Code)
	}

	// Introspection: stats, healthz, metrics.
	var stats StatsResponse
	if code := getJSON(t, c, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Name != "cs_academics" || stats.NumRelations != 2 {
		t.Errorf("stats %+v", stats)
	}
	if rb := stats.ResidentBytes; rb["columns"]+rb["dicts"] != stats.DBBytes || rb["dicts"] <= 0 || rb["hash_index"] <= 0 || rb["hash_index_tail"] > rb["hash_index"] || rb["basic_stats"] <= 0 {
		t.Errorf("stats resident_bytes %v (db_bytes %d)", rb, stats.DBBytes)
	}
	var health map[string]any
	if code := getJSON(t, c, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: %v %v", code, health)
	}
	resp, err := c.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, needle := range []string{
		`squid_http_requests_total{route="/v1/discover",code="200"}`,
		`squid_http_requests_total{route="/v1/insert",code="400"}`,
		"squid_discoveries_in_flight 0",
		"squid_selcache_hits_total",
		`squid_request_duration_seconds_bucket{route="/v1/discover",le="+Inf"}`,
		"squid_admission_shed_total 0",
		fmt.Sprintf(`squid_resident_bytes{structure="columns"} %d`, stats.ResidentBytes["columns"]),
		fmt.Sprintf(`squid_resident_bytes{structure="dicts"} %d`, stats.ResidentBytes["dicts"]),
		fmt.Sprintf(`squid_resident_bytes{structure="hash_index"} %d`, stats.ResidentBytes["hash_index"]),
		fmt.Sprintf(`squid_resident_bytes{structure="basic_stats"} %d`, stats.ResidentBytes["basic_stats"]),
		`squid_resident_bytes{structure="derived_pairs"}`,
		`squid_resident_bytes{structure="rowset_memos"}`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics exposition missing %q", needle)
		}
	}
	if strings.Contains(text, "derived_columns") {
		t.Error("metrics expose derived_columns: the derived relations are views, and store no column")
	}

	// On-demand snapshot: saved atomically, loadable, and answers
	// identically (including the post-insert state).
	var snapResp SnapshotResponse
	if code := postJSON(t, c, ts.URL+"/v1/snapshot", struct{}{}, &snapResp); code != http.StatusOK {
		t.Fatalf("snapshot: status %d resp %+v", code, snapResp)
	}
	if snapResp.Bytes <= 0 {
		t.Errorf("snapshot reported %d bytes", snapResp.Bytes)
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := squid.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rewarmed, err := loaded.DiscoverContext(context.Background(), exampleSet)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rewarmed.Output, after.Output) {
		t.Errorf("snapshot round trip diverged: %v want %v", rewarmed.Output, after.Output)
	}
}

// TestOutOfRangeJSONNumbers pins the int64 boundary of the JSON codec:
// a whole number at or beyond ±2^63 must never reach int64(x), which
// would store or compare math.MinInt64. The write path rejects it; the
// query path keeps it a float so the comparison means what it says.
func TestOutOfRangeJSONNumbers(t *testing.T) {
	sys := newTestSystem(t)
	ts := httptest.NewServer(New(sys, Config{}))
	defer ts.Close()
	c := ts.Client()

	for _, id := range []float64{1e300, 9.3e18, -9.3e18, 1 << 63} {
		if v, err := valueFromJSON(id); err != nil || v.IsInt() || v.Float() != id {
			t.Errorf("valueFromJSON(%g) = %v, %v; want the float unchanged", id, v, err)
		}
		var errResp ErrorResponse
		code := postJSON(t, c, ts.URL+"/v1/insert", InsertRequest{
			Rel: "academics", Values: []any{id, "Out Of Range"}}, &errResp)
		if code != http.StatusBadRequest || errResp.Code != "bad_insert" {
			t.Errorf("insert id=%g: status %d code %q, want 400 bad_insert", id, code, errResp.Code)
		}
	}
	if v, err := valueFromJSON(float64(1980)); err != nil || !v.IsInt() || v.Int() != 1980 {
		t.Errorf("valueFromJSON(1980) = %v, %v; want the integer", v, err)
	}
	if n := sys.ExecutableDB().Relation("academics").NumRows(); n != 6 {
		t.Fatalf("rejected inserts left %d academics rows, want 6", n)
	}

	plans := []struct {
		op    string
		value float64
		want  int
	}{
		{"<=", 1e300, 6},
		{"<=", 9.3e18, 6},
		{">=", 9.3e18, 0},
		{">=", -9.3e18, 6},
		{"<=", 102, 3},
	}
	for _, p := range plans {
		var exec ExecuteResponse
		code := postJSON(t, c, ts.URL+"/v1/execute", ExecuteRequest{Query: QueryJSON{
			From:   []string{"academics"},
			Preds:  []PredJSON{{Rel: "academics", Col: "id", Op: p.op, Value: p.value}},
			Select: []ColRefJSON{{Rel: "academics", Col: "name"}},
		}}, &exec)
		if code != http.StatusOK || exec.NumRows != p.want {
			t.Errorf("execute id %s %g: status %d, %d rows, want %d", p.op, p.value, code, exec.NumRows, p.want)
		}
	}
}

func TestAdmissionQueue(t *testing.T) {
	a := newAdmission(1, 1)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue...
	done := make(chan error, 1)
	go func() { done <- a.acquire(context.Background()) }()
	// ...wait until it is queued, then the next caller is shed.
	for a.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Errorf("over-queue acquire returned %v, want ErrOverloaded", err)
	}
	a.release()
	if err := <-done; err != nil {
		t.Errorf("queued waiter got %v", err)
	}
	a.release()

	// A queued waiter honors its context.
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for a.queued.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if err := a.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter got %v", err)
	}
	a.release()
}

// TestServerSheds429 deterministically exercises the load-shedding
// path: with the single slot held and no queue, a discovery request is
// rejected immediately with 429 and a Retry-After hint.
func TestServerSheds429(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 1, QueueDepth: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := srv.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(DiscoverRequest{Examples: exampleSet})
	resp, err := ts.Client().Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var errResp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil || errResp.Code != "overloaded" {
		t.Errorf("shed body %+v err %v", errResp, err)
	}
	srv.adm.release()

	// With the slot free again the same request succeeds.
	var disc DiscoverResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, &disc); code != http.StatusOK {
		t.Fatalf("post-release discover: status %d", code)
	}

	// Metrics recorded the shed.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "squid_admission_shed_total 1") {
		t.Error("shed not counted in metrics")
	}
}

// TestServerRequestTimeout proves the per-request deadline reaches the
// abduction: an expired budget turns into 504 instead of a hung request.
func TestServerRequestTimeout(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, Config{RequestTimeout: time.Nanosecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var errResp ErrorResponse
	code := postJSON(t, ts.Client(), ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, &errResp)
	if code != http.StatusGatewayTimeout || errResp.Code != "timeout" {
		t.Errorf("status %d body %+v, want 504/timeout", code, errResp)
	}
}

// TestServerGracefulDrain exercises the full shutdown contract under
// concurrent load (meaningful with -race): clients hammer discover,
// execute, and insert while the server drains — in-flight requests
// complete, shed requests see 429, the final snapshot lands atomically
// and warm-boots to the post-ingest state.
func TestServerGracefulDrain(t *testing.T) {
	sys := newTestSystem(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "drain.sqas")
	srv := New(sys, Config{
		MaxInFlight:      2,
		QueueDepth:       2,
		SnapshotPath:     snap,
		SnapshotInterval: 5 * time.Millisecond, // exercise the periodic loop too
	})
	httpSrv := &http.Server{Handler: srv}
	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}

	var (
		ok429, ok200, other atomic.Int64
		inserted            atomic.Int64
	)
	post := func(path string, body any) (int, bool) {
		raw, _ := json.Marshal(body)
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			return 0, false // connection refused after shutdown
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var code int
				var alive bool
				switch i % 3 {
				case 0:
					code, alive = post("/v1/discover", DiscoverRequest{Examples: exampleSet})
				case 1:
					code, alive = post("/v1/discover/batch", BatchDiscoverRequest{Sets: [][]string{exampleSet}})
				default:
					code, alive = post("/v1/insert", InsertRequest{
						Rel:    "research",
						Values: []any{float64(100 + (id+i)%6), "drain testing"},
					})
					if alive && code == http.StatusOK {
						inserted.Add(1)
					}
				}
				if !alive {
					return // server stopped accepting: expected post-drain
				}
				switch code {
				case http.StatusOK:
					ok200.Add(1)
				case http.StatusTooManyRequests:
					ok429.Add(1)
				default:
					other.Add(1)
					t.Errorf("unexpected status %d (iteration %d)", code, i)
				}
			}
		}(g)
	}

	// Let the load run, then drain: healthz flips to 503, Shutdown
	// finishes the in-flight requests, Finalize writes the snapshot.
	time.Sleep(150 * time.Millisecond)
	srv.BeginDrain()
	hresp, err := client.Get(base + "/healthz")
	if err == nil {
		if hresp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining healthz status %d want 503", hresp.StatusCode)
		}
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown did not finish in-flight requests: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := srv.Finalize(); err != nil {
		t.Fatalf("final snapshot: %v", err)
	}

	if ok200.Load() == 0 {
		t.Error("no request completed during the drain run")
	}
	t.Logf("drain run: %d ok, %d shed (429), %d rows ingested", ok200.Load(), ok429.Load(), inserted.Load())

	// The final snapshot holds every acknowledged insert: a warm boot
	// answers with the fully ingested fact table.
	f, err := os.Open(snap)
	if err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
	loaded, err := squid.Load(f)
	f.Close()
	if err != nil {
		t.Fatalf("final snapshot corrupt: %v", err)
	}
	wantRows := sys.ExecutableDB().Relation("research").NumRows()
	gotRows := loaded.ExecutableDB().Relation("research").NumRows()
	if gotRows != wantRows {
		t.Errorf("snapshot research rows %d, live system has %d", gotRows, wantRows)
	}
	if int64(wantRows) < 8+inserted.Load() {
		t.Errorf("live system rows %d < 8 seed + %d acknowledged inserts", wantRows, inserted.Load())
	}
	// No half-written temp file left behind.
	if _, err := os.Stat(snap + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale snapshot temp file: %v", err)
	}
}

// TestDrainSnapshotCapturesFinalEpoch regresses the drain/snapshot
// ordering contract: the final Finalize snapshot must encode the αDB
// epoch current at encode time — including writes acknowledged after
// BeginDrain (inserts bypass admission and keep landing until the
// listener stops) — never an epoch pinned earlier. A warm boot from
// the snapshot must answer with every acknowledged row.
func TestDrainSnapshotCapturesFinalEpoch(t *testing.T) {
	sys := newTestSystem(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "final.sqas")
	srv := New(sys, Config{SnapshotPath: snap})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// An insert acknowledged before the drain...
	code := postJSON(t, client, ts.URL+"/v1/insert", InsertRequest{
		Rel: "academics", Values: []any{float64(200), "Pre Drain"}}, nil)
	if code != http.StatusOK {
		t.Fatalf("pre-drain insert status %d", code)
	}
	srv.BeginDrain()
	// ...and one acknowledged after BeginDrain but before Finalize
	// (inserts bypass admission; the listener is still accepting).
	code = postJSON(t, client, ts.URL+"/v1/insert", InsertRequest{
		Rel: "research", Values: []any{float64(200), "data management"}}, nil)
	if code != http.StatusOK {
		t.Fatalf("post-drain insert status %d", code)
	}
	if err := srv.Finalize(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	restored, err := squid.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	// Both acknowledged writes must be answerable from the warm boot:
	// the new scholar resolves and carries the post-drain interest.
	disc, err := restored.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden", "Pre Drain"})
	if err != nil {
		t.Fatalf("restored discovery: %v", err)
	}
	found := false
	for _, v := range disc.Output {
		if v == "Pre Drain" {
			found = true
		}
	}
	if !found {
		t.Errorf("final snapshot lost acknowledged writes; output = %v", disc.Output)
	}
}

// TestServerPanicRecovery proves one poisoned request cannot take the
// process down or leak its admission slot: a handler that panics
// mid-discovery (after admission, like a real discovery would) is
// answered with 500 internal_error, counted in squid_panics_total, and
// the slot it held is back in service for the next request.
func TestServerPanicRecovery(t *testing.T) {
	// The recovery path logs the stack; keep the test output clean.
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 1, QueueDepth: -1})
	// Mount an instrumented route shaped exactly like handleDiscover —
	// admission claim, deferred release — that dies where the abduction
	// would run. The deferred release runs during the unwind, so the
	// recovery in route() must find the slot already returned.
	srv.route("POST /v1/boom", func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := srv.requestCtx(r)
		defer cancel()
		if !srv.admit(ctx, w) {
			return
		}
		start := time.Now()
		defer srv.adm.releaseAndObserve(start)
		panic("abduction exploded mid-discovery")
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var errResp ErrorResponse
	code := postJSON(t, ts.Client(), ts.URL+"/v1/boom", struct{}{}, &errResp)
	if code != http.StatusInternalServerError || errResp.Code != "internal_error" {
		t.Fatalf("panicking handler: status %d body %+v, want 500/internal_error", code, errResp)
	}
	if n := srv.adm.inFlight(); n != 0 {
		t.Fatalf("admission slots leaked across the panic: inFlight = %d", n)
	}

	// With a single slot and no queue, a leaked slot would shed this
	// request; a 200 proves the slot survived the panic.
	var disc DiscoverResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, &disc); code != http.StatusOK {
		t.Fatalf("discovery after panic: status %d", code)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, needle := range []string{
		"squid_panics_total 1",
		`squid_http_requests_total{route="/v1/boom",code="500"}`,
	} {
		if !strings.Contains(string(body), needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
}

// TestRetryAfterComputed exercises the Retry-After estimator directly:
// work ahead over observed service rate, EWMA-smoothed, clamped to
// [1, 60], with a 1-second floor before any observation.
func TestRetryAfterComputed(t *testing.T) {
	a := newAdmission(2, 4)
	if got := a.retryAfterSeconds(); got != 1 {
		t.Errorf("no observations: hint = %d, want the 1s floor", got)
	}

	a.observe(3 * time.Second)
	for i := 0; i < 2; i++ { // occupy both slots
		if err := a.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Two running requests at 3s average over two slots → 3s.
	if got := a.retryAfterSeconds(); got != 3 {
		t.Errorf("2 running @ 3s avg: hint = %d, want 3", got)
	}
	// Queued waiters count as work ahead: 4 requests ahead → 6s.
	a.queued.Add(2)
	if got := a.retryAfterSeconds(); got != 6 {
		t.Errorf("2 running + 2 queued: hint = %d, want 6", got)
	}
	a.queued.Add(-2)

	// The EWMA folds new samples in at α=0.2: 0.8·3s + 0.2·1s = 2.6s,
	// so one freed slot leaves 1 running · 2.6 / 2 → ceil = 2.
	a.observe(1 * time.Second)
	a.release()
	if got := a.retryAfterSeconds(); got != 2 {
		t.Errorf("1 running @ 2.6s avg: hint = %d, want 2", got)
	}

	// Clamps: a pathological average saturates at 60, a tiny one floors at 1.
	a.ewmaBits.Store(math.Float64bits(1000))
	if got := a.retryAfterSeconds(); got != 60 {
		t.Errorf("huge avg: hint = %d, want the 60s clamp", got)
	}
	a.ewmaBits.Store(math.Float64bits(0.0001))
	if got := a.retryAfterSeconds(); got != 1 {
		t.Errorf("tiny avg: hint = %d, want the 1s floor", got)
	}
	a.release()
}

// TestServerRetryAfterHTTP proves the 429 Retry-After header carries the
// computed estimate, not a constant: with a slow observed service time
// and the only slot held, the shed response hints ≥ 2 seconds.
func TestServerRetryAfterHTTP(t *testing.T) {
	sys := newTestSystem(t)
	srv := New(sys, Config{MaxInFlight: 1, QueueDepth: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// One completed discovery seeds the EWMA; a synthetic slow sample
	// pushes the average where a constant hint could not follow.
	var disc DiscoverResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, &disc); code != http.StatusOK {
		t.Fatalf("seed discovery: status %d", code)
	}
	srv.adm.observe(10 * time.Second)

	if err := srv.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.adm.release()
	raw, _ := json.Marshal(DiscoverRequest{Examples: exampleSet})
	resp, err := ts.Client().Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 2 || secs > 60 {
		t.Errorf("Retry-After = %d, want a computed value in [2, 60] (avg ≈ 2s, 1 slot, 1 ahead)", secs)
	}
}

// TestServerWALSyncFailure drives the durability contract over HTTP:
// when the log cannot reach stable storage, the insert is answered 500
// wal_sync_failed instead of a lying 200, and the poisoned log keeps
// refusing acknowledgements until an operator intervenes.
func TestServerWALSyncFailure(t *testing.T) {
	fs := iofault.NewMemFS()
	sys := newTestSystem(t)
	if _, err := sys.RecoverWAL("wal.log", wal.Options{Policy: wal.PolicyAlways, FS: fs}); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fs.FailSyncs(1)
	var errResp ErrorResponse
	code := postJSON(t, ts.Client(), ts.URL+"/v1/insert", InsertRequest{
		Rel: "academics", Values: []any{float64(200), "Unacked Scholar"}}, &errResp)
	if code != http.StatusInternalServerError || errResp.Code != "wal_sync_failed" {
		t.Fatalf("insert over failed fsync: status %d body %+v, want 500/wal_sync_failed", code, errResp)
	}
	// The failure is sticky: the log never acknowledges again.
	code = postJSON(t, ts.Client(), ts.URL+"/v1/insert", InsertRequest{
		Rel: "academics", Values: []any{float64(201), "Also Unacked"}}, &errResp)
	if code != http.StatusInternalServerError || errResp.Code != "wal_sync_failed" {
		t.Fatalf("insert after poisoning: status %d body %+v", code, errResp)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, needle := range []string{
		"squid_wal_failed 1",
		"squid_wal_sync_failures_total 1",
	} {
		if !strings.Contains(string(body), needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
}

// TestServerSnapshotCheckpointsWAL proves POST /v1/snapshot doubles as a
// log checkpoint: the log rotates (and the retired segment is discarded
// once the snapshot lands), and a reboot replays only the records after
// the checkpoint on top of the snapshot.
func TestServerSnapshotCheckpointsWAL(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	snapPath := filepath.Join(dir, "snap.sqas")

	sys := newTestSystem(t)
	if _, err := sys.RecoverWAL(walPath, wal.Options{Policy: wal.PolicyAlways}); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Config{SnapshotPath: snapPath})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code := postJSON(t, ts.Client(), ts.URL+"/v1/insert", InsertRequest{
		Rel: "academics", Values: []any{float64(200), "Before Checkpoint"}}, nil)
	if code != http.StatusOK {
		t.Fatalf("pre-checkpoint insert: status %d", code)
	}
	var snap SnapshotResponse
	if code := postJSON(t, ts.Client(), ts.URL+"/v1/snapshot", struct{}{}, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	if m := sys.WAL().Metrics(); m.Rotations != 1 {
		t.Errorf("rotations after snapshot = %d, want 1", m.Rotations)
	}
	if _, err := os.Stat(walPath + ".prev"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("retired segment survives a completed checkpoint: stat = %v", err)
	}
	code = postJSON(t, ts.Client(), ts.URL+"/v1/insert", InsertRequest{
		Rel: "research", Values: []any{float64(200), "data management"}}, nil)
	if code != http.StatusOK {
		t.Fatalf("post-checkpoint insert: status %d", code)
	}

	// Crash-reboot (no Finalize, no Close — PolicyAlways already made
	// every acknowledged record durable): load the snapshot, replay the
	// tail. Only the post-checkpoint insert should need replaying.
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	sys2, err := squid.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	info, err := sys2.RecoverWAL(walPath, wal.Options{Policy: wal.PolicyNever})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 1 {
		t.Errorf("replayed %d records, want 1 (the snapshot covers the rest)", info.Replayed)
	}

	// The rebooted system answers identically to the live one.
	want, err := sys.DiscoverContext(context.Background(), exampleSet)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys2.DiscoverContext(context.Background(), exampleSet)
	if err != nil {
		t.Fatalf("discovery after reboot: %v", err)
	}
	if got.Explain() != want.Explain() {
		t.Errorf("recovered discovery diverges from the live system:\nlive:\n%s\nrecovered:\n%s",
			want.Explain(), got.Explain())
	}
}
