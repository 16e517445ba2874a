package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"squid"
	"squid/internal/trace"
)

// postRaw POSTs a body as it is and returns the status and the answer.
func postRaw(t *testing.T, c *http.Client, url, body string) (int, string) {
	t.Helper()
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestTrailingDataRejected holds every route that takes a JSON body to
// "the body is one JSON value": a valid value followed by anything but
// whitespace is 400 bad_request, and on the insert routes the αDB's row
// counts do not move.
func TestTrailingDataRejected(t *testing.T) {
	sys := newTestSystem(t)
	ts := httptest.NewServer(New(sys, Config{}))
	defer ts.Close()
	c := ts.Client()

	var disc DiscoverResponse
	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, &disc); code != http.StatusOK {
		t.Fatalf("discover: status %d", code)
	}
	plan, err := json.Marshal(ExecuteRequest{Query: disc.Query})
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct{ path, body string }{
		{"/v1/discover", `{"examples":["Dan Suciu","Sam Madden"]}`},
		{"/v1/discover/batch", `{"sets":[["Dan Suciu","Sam Madden"]]}`},
		{"/v1/execute", string(plan)},
		{"/v1/insert", `{"rel":"academics","values":[900,"Trailing Data"]}`},
		{"/v1/insert/batch", `{"ops":[{"rel":"academics","values":[901,"Trailing Batch"]}]}`},
	}
	rowCounts := func() [2]int {
		db := sys.ExecutableDB()
		return [2]int{db.Relation("academics").NumRows(), db.Relation("research").NumRows()}
	}
	before := rowCounts()
	for _, rt := range routes {
		for _, trailer := range []string{" x", `{"examples":[]}`, "]", " 1", "\n{}"} {
			code, answer := postRaw(t, c, ts.URL+rt.path, rt.body+trailer)
			if code != http.StatusBadRequest || !strings.Contains(answer, `"code":"bad_request"`) {
				t.Errorf("%s with %q after the value: status %d %s, want 400 bad_request", rt.path, trailer, code, answer)
			}
		}
		if got := rowCounts(); got != before {
			t.Fatalf("%s: a rejected body moved the row counts from %v to %v", rt.path, before, got)
		}
	}
	// Whitespace after the value is not data: the same bodies pass.
	for _, rt := range routes {
		if code, answer := postRaw(t, c, ts.URL+rt.path, rt.body+" \n\t"); code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d %s, want 200", rt.path, code, answer)
		}
	}
}

// TestExecuteRejectsQueriesWithoutAnAnswer: a plan that selects nothing,
// counts groups it never formed or orders TEXT against a number is 400
// bad_query — not 200 with one empty row per academic, not the HAVING
// dropped, not a 500 out of the panic handler.
func TestExecuteRejectsQueriesWithoutAnAnswer(t *testing.T) {
	ts := httptest.NewServer(New(newTestSystem(t), Config{}))
	defer ts.Close()
	for _, query := range []string{
		`{"from":["academics"],"select":[]}`,
		`{"from":["academics"],"select":[{"rel":"academics","col":"name"}],"having_count_ge":3}`,
		`{"from":["academics"],"select":[{"rel":"academics","col":"name"}],"group_by":[{"rel":"academics","col":"name"}],"having_count_ge":-1}`,
		`{"from":["academics"],"select":[{"rel":"academics","col":"name"}],"preds":[{"rel":"academics","col":"name","op":">=","value":5}]}`,
	} {
		code, answer := postRaw(t, ts.Client(), ts.URL+"/v1/execute", `{"query":`+query+`}`)
		if code != http.StatusBadRequest || !strings.Contains(answer, `"code":"bad_query"`) {
			t.Errorf("%s: status %d %s, want 400 bad_query", query, code, answer)
		}
	}
}

// TestDiscoverFiltersIsAlwaysAnArray pins the wire shape of a discovery
// whose abduction selects no filter: "filters" is [] like "output", not
// null, on /v1/discover and in every element of /v1/discover/batch.
func TestDiscoverFiltersIsAlwaysAnArray(t *testing.T) {
	ts := httptest.NewServer(New(newTestSystem(t), Config{}))
	defer ts.Close()
	c := ts.Client()
	// An algorithms and a networks researcher share no property.
	code, answer := postRaw(t, c, ts.URL+"/v1/discover", `{"examples":["Thomas Cormen","James Kurose"]}`)
	if code != http.StatusOK {
		t.Fatalf("discover: status %d %s", code, answer)
	}
	if !strings.Contains(answer, `"filters":[]`) || strings.Contains(answer, `"output":null`) {
		t.Errorf(`discover answers %s, want "filters":[] and an output array`, answer)
	}
	code, answer = postRaw(t, c, ts.URL+"/v1/discover/batch",
		`{"sets":[["Thomas Cormen","James Kurose"],["Dan Suciu","Sam Madden"],["Jiawei Han","James Kurose"]]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d %s", code, answer)
	}
	if n := strings.Count(answer, `"filters":[`); n != 3 || strings.Contains(answer, `"filters":null`) {
		t.Errorf(`batch answers %s, want a "filters" array in each of its 3 results`, answer)
	}
}

// TestPooledRecorderCarriesNothingOver runs discover, execute and insert
// requests concurrently through one server — whose recorders are reused
// across all three kinds — and checks every embedded trace against its
// own request: one root of the request's kind, no phase of another kind
// anywhere under it, the candidate label and counters of its own
// examples. Meant for -race: a recorder handed out twice would also be a
// data race.
func TestPooledRecorderCarriesNothingOver(t *testing.T) {
	sys := newTestSystem(t)
	ts := httptest.NewServer(New(sys, Config{}))
	defer ts.Close()
	c := ts.Client()

	var disc DiscoverResponse
	if code := postJSON(t, c, ts.URL+"/v1/discover", DiscoverRequest{Examples: exampleSet}, &disc); code != http.StatusOK {
		t.Fatalf("discover: status %d", code)
	}
	// The span vocabulary of each kind of request.
	phasesOf := map[string]map[string]bool{
		"discover": {"discover": true, "resolve": true, "candidate": true, "contexts": true, "selectivity": true,
			"abduce": true, "rows": true, "rowset": true, "intersect": true},
		"execute": {"execute": true, "stage": true},
		"insert":  {"insert": true, "publish_wait": true, "apply": true, "publish": true, "wal_append": true, "wal_barrier": true},
	}
	var check func(t *testing.T, kind string, sp *trace.SpanJSON)
	check = func(t *testing.T, kind string, sp *trace.SpanJSON) {
		if !phasesOf[kind][sp.Phase] {
			t.Errorf("%s trace holds a %q span (label %q, counters %v)", kind, sp.Phase, sp.Label, sp.Counters)
		}
		switch sp.Phase {
		case "candidate":
			if sp.Label != "academics.name" {
				t.Errorf("candidate span labeled %q", sp.Label)
			}
		case "stage", "rowset":
		default:
			if sp.Label != "" {
				t.Errorf("%s span carries label %q", sp.Phase, sp.Label)
			}
		}
		for _, ch := range sp.Children {
			check(t, kind, ch)
		}
	}
	root := func(t *testing.T, kind string, tr *trace.TraceJSON) *trace.SpanJSON {
		if tr == nil || tr.Kind != kind || len(tr.Spans) != 1 || tr.Spans[0].Phase != kind || tr.DroppedSpans != 0 {
			t.Errorf("want one %s trace with one %s root and nothing dropped, got %+v", kind, kind, tr)
			return nil
		}
		check(t, kind, tr.Spans[0])
		return tr.Spans[0]
	}

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		sets := [][]string{exampleSet, {"Thomas Cormen", "James Kurose"}, {"Dan Suciu", "Sam Madden"}}
		for i := 0; i < rounds; i++ {
			var resp DiscoverResponse
			set := sets[i%len(sets)]
			if code := postJSON(t, c, ts.URL+"/v1/discover?trace=1", DiscoverRequest{Examples: set}, &resp); code != http.StatusOK {
				t.Errorf("discover: status %d", code)
				return
			}
			r := root(t, "discover", resp.Trace)
			if r == nil {
				return
			}
			if res, ok := findSpan(resp.Trace.Spans, "resolve"); !ok || res.Counters["candidates"] != 1 {
				t.Errorf("resolve span of %q counts %v, want 1 candidate", set, res)
			}
			if is, ok := findSpan(resp.Trace.Spans, "intersect"); !ok || is.Counters["rows"] != int64(len(resp.Output)) ||
				is.Counters["selected"] != int64(len(resp.Filters)) {
				t.Errorf("intersect span of %q counts %v, the response has %d rows and %d filters", set, is, len(resp.Output), len(resp.Filters))
			}
			if _, stale := r.Counters["rows"]; stale {
				t.Errorf("discover root carries an insert's row counter: %v", r.Counters)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			var resp ExecuteResponse
			if code := postJSON(t, c, ts.URL+"/v1/execute?trace=1", ExecuteRequest{Query: disc.Query}, &resp); code != http.StatusOK {
				t.Errorf("execute: status %d", code)
				return
			}
			if r := root(t, "execute", resp.Trace); r != nil && len(r.Counters) != 0 {
				t.Errorf("execute root carries counters %v", r.Counters)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Inserts answer without their trace; it lands in the ring.
			req := InsertRequest{Rel: "research", Values: []any{100 + i%6, "pooled recorders"}}
			if code := postJSON(t, c, ts.URL+"/v1/insert", req, nil); code != http.StatusOK {
				t.Errorf("insert: status %d", code)
				return
			}
		}
	}()
	wg.Wait()
	inserts := 0
	for _, tr := range sys.Traces().Recent(3 * rounds) {
		if tr.Kind != "insert" {
			continue
		}
		inserts++
		j := tr.JSON()
		if r := root(t, "insert", j); r != nil && (len(r.Counters) != 1 || r.Counters["rows"] != 1) {
			t.Errorf("insert root counts %v, want rows=1 only", r.Counters)
		}
	}
	if inserts == 0 {
		t.Error("no insert trace in the ring")
	}
}

// TestUnencodableResultIs500 loads a DOUBLE column holding NaN, +Inf
// and -Inf through squid.LoadCSV and executes plans that select it:
// JSON has no form for those values, so the answer must be a 500
// unencodable_result carrying the encoder's message — not a 200 with an
// empty body (what it was while the status line went out before the
// encode), and not a null a client would read as SQL NULL. A plan that
// selects only encodable cells of the same rows still answers 200, and
// every answer's Content-Length is its exact size.
func TestUnencodableResultIs500(t *testing.T) {
	db := academicsDB()
	readings, err := squid.LoadCSV("readings", strings.NewReader("id,v\n1,1.5\n2,NaN\n3,Inf\n4,-Inf\n"),
		[]squid.CSVColumn{{Name: "id", Type: squid.Int}, {Name: "v", Type: squid.Float}})
	if err != nil {
		t.Fatal(err)
	}
	db.AddRelation(readings)
	sys, err := squid.Build(db, squid.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(sys, Config{}))
	defer ts.Close()
	c := ts.Client()

	execute := func(q QueryJSON) (*http.Response, []byte) {
		t.Helper()
		raw, err := json.Marshal(ExecuteRequest{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Post(ts.URL+"/v1/execute", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Errorf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
		}
		return resp, body
	}
	for _, v := range []string{"NaN", "+Inf", "-Inf"} {
		pred := PredJSON{Rel: "readings", Col: "id", Op: "=", Value: map[string]float64{"NaN": 2, "+Inf": 3, "-Inf": 4}[v]}
		resp, body := execute(QueryJSON{From: []string{"readings"}, Preds: []PredJSON{pred},
			Select: []ColRefJSON{{Rel: "readings", Col: "v"}}})
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatalf("%s: status %d, body %q is not an error envelope: %v", v, resp.StatusCode, body, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || e.Code != "unencodable_result" || !strings.Contains(e.Error, "unsupported value") {
			t.Errorf("%s: status %d body %q, want 500 unencodable_result with the encoder's message", v, resp.StatusCode, body)
		}
	}
	resp, body := execute(QueryJSON{From: []string{"readings"}, Select: []ColRefJSON{{Rel: "readings", Col: "id"}}})
	var exec ExecuteResponse
	if err := json.Unmarshal(body, &exec); err != nil || resp.StatusCode != http.StatusOK || exec.NumRows != 4 {
		t.Errorf("ids of the same rows: status %d, %d rows (%v), want 200 and 4", resp.StatusCode, exec.NumRows, err)
	}
}
