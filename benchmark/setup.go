package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"squid"
	"squid/internal/relation"
	"squid/internal/server"
	"squid/internal/wal"
)

// walPolicy is the fsync policy of every workload's log. The sandbox's
// fsync time is the disk's, not the program's, so the always barrier is
// a per-layer number (wal.barrier_always_ms) and the gated latencies run
// without it.
const walPolicy = wal.PolicyNever

// stack is one booted system: loaded from its snapshot, a write-ahead
// log attached, and, for the HTTP workloads, internal/server listening
// on loopback.
type stack struct {
	sys      *squid.System
	log      *wal.Log
	walPath  string
	snapPath string

	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	base    string
	client  *http.Client
}

// cycleTimes are the parts of one offline cycle.
type cycleTimes struct {
	build, save, load, total float64
	snapBytes                int64
}

func numClients() int {
	n := runtime.GOMAXPROCS(0)
	if n > maxClients {
		n = maxClients
	}
	return n
}

// offlineCycle runs the offline phase once, as a deployment would:
// build the αDB from the database, save it, boot from the file, open a
// write-ahead log and, when serve is set, start listening. It returns
// the booted stack and what each part cost.
func offlineCycle(db *relation.Database, dir string, cycle int, serve bool, wrap func(http.Handler) http.Handler) (*stack, cycleTimes, error) {
	var ct cycleTimes
	st := &stack{
		snapPath: filepath.Join(dir, fmt.Sprintf("cycle%d.sqas", cycle)),
		walPath:  filepath.Join(dir, fmt.Sprintf("cycle%d.wal", cycle)),
	}
	start := time.Now()
	built, err := squid.Build(db, squid.DefaultBuildConfig())
	if err != nil {
		return nil, ct, err
	}
	ct.build = time.Since(start).Seconds()

	t := time.Now()
	ct.snapBytes, err = saveSnapshot(built, st.snapPath)
	if err != nil {
		return nil, ct, err
	}
	ct.save = time.Since(t).Seconds()

	t = time.Now()
	st.sys, err = loadSnapshot(st.snapPath)
	if err != nil {
		return nil, ct, err
	}
	ct.load = time.Since(t).Seconds()

	st.log, _, err = wal.Open(st.walPath, wal.Options{Policy: walPolicy})
	if err != nil {
		return nil, ct, fmt.Errorf("open wal: %w", err)
	}
	st.sys.AttachWAL(st.log)
	if serve {
		if err := st.listen(wrap); err != nil {
			_ = st.log.Close() // the listen error is the one to report
			return nil, ct, err
		}
	}
	ct.total = time.Since(start).Seconds()
	return st, ct, nil
}

func saveSnapshot(sys *squid.System, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := sys.Save(f); err != nil {
		f.Close()
		return 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return info.Size(), f.Close()
}

// loadSnapshot boots a system from a snapshot file and sets
// Params.Workers to 1, cmd/squid-server's default: serial discoveries.
// It also makes the traced phases partition a request, so the layer
// ladder sums.
func loadSnapshot(path string) (*squid.System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := squid.Load(f)
	if err != nil {
		return nil, err
	}
	p := sys.Params()
	p.Workers = 1
	sys.SetParams(p)
	return sys, nil
}

// listen starts internal/server on a loopback port. wrap, when not nil,
// goes around the server's handler (the traced run records a span
// there).
func (st *stack) listen(wrap func(http.Handler) http.Handler) error {
	st.srv = server.New(st.sys, server.Config{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	var h http.Handler = st.srv
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.httpSrv = &http.Server{Handler: h}
	st.served = make(chan error, 1)
	go func() { st.served <- st.httpSrv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        2 * maxClients,
			MaxIdleConnsPerHost: 2 * maxClients,
		},
	}
	return nil
}

// close drains the server, waits for its goroutine and closes the log.
func (st *stack) close(ctx context.Context) error {
	var first error
	if st.httpSrv != nil {
		st.srv.BeginDrain()
		ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := st.httpSrv.Shutdown(ctx); err != nil {
			first = err
		}
		<-st.served
		st.client.CloseIdleConnections()
		// Finalize closes the attached log.
		if err := st.srv.Finalize(); err != nil && first == nil {
			first = err
		}
		return first
	}
	return st.log.Close()
}
