package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's spans. They are recorded by the benchmark around its
// calls into each layer (the program gets no new spans), kept in memory,
// and written out when the run ends.

// span is one timed call. Parent is the id of the span that caused it,
// 0 for a root; spans of one request share Req.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Req     string `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog collects spans from any goroutine. While on is false the
// workload's operations and the handler wrapper record nothing, which is
// how a traced run measures its own untraced baseline.
type spanLog struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id; end closes it.
func (l *spanLog) begin(name string, parent int64, req string) int64 {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req, StartNS: now})
	l.mu.Unlock()
	return id
}

func (l *spanLog) end(id int64) time.Duration {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	s := &l.spans[id-1]
	s.EndNS = now
	d := s.EndNS - s.StartNS
	l.mu.Unlock()
	return time.Duration(d)
}

// spanFile is the layout of the file a traced run writes.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (l *spanLog) write(path, workload string, seed int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanHeader carries the client span's id to the handler wrapper, so the
// server-side span of a loopback request names its cause.
const spanHeader = "X-Bench-Span"

// wrapHandler records a span around every request the server handles.
func (l *spanLog) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent or malformed: a root span
		id := l.begin("server.ServeHTTP "+r.URL.Path, parent, r.Header.Get("X-Request-Id"))
		next.ServeHTTP(w, r)
		l.end(id)
	})
}
