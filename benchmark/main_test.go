package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps the contract file and the program
// from drifting: BENCHMARK.json declares exactly what spec.go reports.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(file.Command, want) {
		t.Errorf("command = %v, want %v", file.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(file.Paths, want) {
		t.Errorf("paths = %v, want %v", file.Paths, want)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n file %v\n spec %v", file.Workloads, workloadSpecs)
	}
	endToEnd := make([]metricSpec, len(endToEndSpecs))
	for i, m := range endToEndSpecs {
		m.What = ""
		endToEnd[i] = m
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file %v\n spec %v", file.EndToEnd, endToEnd)
	}
	perLayer := make([]layerSpec, len(perLayerSpecs))
	for i, m := range perLayerSpecs {
		m.Moves = ""
		perLayer[i] = m
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file %v\n spec %v", file.PerLayer, perLayer)
	}
}

// TestSpecWithinLimits checks the declaration against the limits of the
// benchmark contract.
func TestSpecWithinLimits(t *testing.T) {
	if n := len(workloadSpecs); n < 2 || n > 4 {
		t.Errorf("%d workloads, want 2 to 4", n)
	}
	if n := len(endToEndSpecs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayerSpecs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, better string) {
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	// The timings are the only metrics above the issue's cap.
	timings := map[string]bool{
		"setup_s": true, "discover_p50_ms": true, "discover_p99_ms": true,
		"discover_per_s": true, "execute_ms": true, "insert_batch_ms": true,
	}
	hasSetup := false
	for _, m := range endToEndSpecs {
		name(m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside the contract's [0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > issueBoundCap && !timings[m.Name] {
			t.Errorf("%s: bound %g is above %g and the metric is not a timing", m.Name, m.Bound, issueBoundCap)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is not among the end-to-end metrics")
	}
	for _, m := range perLayerSpecs {
		name(m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Moves == "" {
			t.Errorf("%s: no end-to-end metric it should move", m.Name)
		}
	}
}

// smokeConfig is a run at the generator's smallest scale: a few hundred
// rows, one draw per intent and size, the least number of rounds.
func smokeConfig(t *testing.T, workload string, traced bool) config {
	return config{
		workload:     workload,
		seed:         7,
		seconds:      0.05,
		traced:       traced,
		scale:        0,
		draws:        1,
		ladderRounds: 1,
		tail:         0.5,
		refSize:      1,
		dir:          t.TempDir(),
		out:          io.Discard,
	}
}

// TestSmoke runs every workload end to end, untraced and traced, and
// checks what a run reports: correct outputs, no failed operation,
// exactly the declared metric names, and a span file whose spans form
// trees.
func TestSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, w.Name, traced)
			var report bytes.Buffer
			cfg.out = &report
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct {
				for _, line := range strings.Split(report.String(), "\n") {
					if strings.HasPrefix(line, "FAILED") {
						t.Errorf("%s traced=%v: %s", w.Name, traced, line)
					}
				}
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", w.Name, traced, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range perLayerSpecs {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range endToEndSpecs {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, name, got, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.Name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for _, m := range endToEndSpecs {
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
					}
				}
				continue
			}
			checkSpanFile(t, spanPath(cfg), w.Name)
		}
	}
}

func checkSpanFile(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file spanFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if file.Workload != workload || len(file.Spans) == 0 {
		t.Fatalf("%s: workload %q, %d spans", path, file.Workload, len(file.Spans))
	}
	ids := make(map[int64]bool, len(file.Spans))
	for _, s := range file.Spans {
		ids[s.ID] = true
	}
	children := 0
	for _, s := range file.Spans {
		if s.Parent != 0 {
			children++
			if !ids[s.Parent] {
				t.Errorf("span %d (%s) names parent %d, which is not in the file", s.ID, s.Name, s.Parent)
			}
		}
		if s.Name == "" || s.Req == "" || s.EndNS < s.StartNS {
			t.Errorf("span %+v is incomplete", s)
		}
	}
	if children == 0 {
		t.Errorf("%s: no span has a parent; the loopback rung's server spans should", path)
	}
}

func TestLastResult(t *testing.T) {
	out := "workload    x\nsetup_s 1 s\n" + `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}` + "\n\n"
	res, err := lastResult(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 3 || res.Metrics["setup_s"].Value != 1.5 {
		t.Errorf("decoded %+v", res)
	}
	if _, err := lastResult(strings.NewReader("no result here\n")); err == nil {
		t.Error("a run that printed no result decoded without error")
	}
}

// TestMeasuredRounds pins the mapping from -seconds to work: the count
// is a function of the arguments alone.
func TestMeasuredRounds(t *testing.T) {
	cases := []struct {
		workload string
		seconds  float64
		want     int
	}{
		{"intent_warm", defaultSeconds, roundsAtDefault["intent_warm"]},
		{"intent_cold", defaultSeconds, roundsAtDefault["intent_cold"]},
		{"intent_warm", 2 * defaultSeconds, 2 * roundsAtDefault["intent_warm"]},
		{"ingest_read", 0.05, minRounds},
		{"serve_http", 0, minRounds},
	}
	for _, c := range cases {
		if got := measuredRounds(c.workload, c.seconds); got != c.want {
			t.Errorf("measuredRounds(%s, %g) = %d, want %d", c.workload, c.seconds, got, c.want)
		}
	}
	for _, w := range workloadSpecs {
		if roundsAtDefault[w.Name] < minRounds {
			t.Errorf("%s: %d rounds at the default, fewer than minRounds", w.Name, roundsAtDefault[w.Name])
		}
	}
}

func TestReference(t *testing.T) {
	ref := newReference(1)
	for i := 0; i < 3; i++ {
		ref.burst()
	}
	if len(ref.burstsMS) != 3 {
		t.Fatalf("%d bursts kept, want 3", len(ref.burstsMS))
	}
	want := median(ref.burstsMS)
	if got := ref.take(); got != want || got <= 0 {
		t.Errorf("take() = %g, want the median %g, above 0", got, want)
	}
	if len(ref.burstsMS) != 0 {
		t.Errorf("take() left %d bursts", len(ref.burstsMS))
	}
	ref.release()
	if ref.chain != nil || ref.keys != nil {
		t.Error("release() kept the kernel's inputs")
	}
	// A machine half as fast doubles the burst; a timing taken on it
	// halves at reference speed.
	if got := atReference(10, 2*referenceNominalMS); !near(got, 5) {
		t.Errorf("atReference(10, twice the nominal burst) = %g, want 5", got)
	}
}
