// Command squid-server serves query intent discovery over HTTP: the
// network front end of the squid engine (internal/server), turning the
// in-process library into a long-running service.
//
// Usage:
//
//	squid-server -addr :8080 -dataset imdb
//	squid-server -dataset dblp -snapshot /var/lib/squid/dblp.sqas -snapshot-interval 5m
//	squid-server -max-inflight 8 -queue-depth 32 -timeout 10s
//	squid-server -log-format json -debug-addr 127.0.0.1:6060 -slow-query-threshold 250ms
//
// With -snapshot, boot is warm when the file exists (squid.Load instead
// of a cold build; the αDB is saved there after a cold build otherwise),
// a background loop re-saves it every -snapshot-interval, POST
// /v1/snapshot re-saves it on demand, and the graceful drain writes a
// final snapshot so no acknowledged insert is lost across restarts.
//
// With -wal, every insert's epoch delta is additionally appended to a
// write-ahead log before (under -wal-fsync=always, fsynced before) the
// insert is acknowledged; boot replays the log tail on top of the
// snapshot, so acknowledged writes survive a crash between snapshots,
// not just a graceful drain. Each snapshot doubles as a log checkpoint
// and truncates the log.
//
// The server sheds load beyond -max-inflight running discoveries plus
// -queue-depth waiters (429 + Retry-After), bounds every request by
// -timeout (wired into context cancellation inside the abduction), and
// drains cleanly on SIGINT/SIGTERM: /healthz flips to 503, in-flight
// requests finish, then the final snapshot lands.
//
// Logs are structured (log/slog); -log-format picks text or JSON lines.
// Every request carries a request id (minted unless the client sent
// X-Request-Id, always echoed back in the X-Request-Id header) that ties
// the access path to traces and slow-query lines. Requests slower than
// -slow-query-threshold log one warn line with their per-phase breakdown
// and surface under /debug/traces?slow=1.
//
// -debug-addr starts a second listener with the pprof and expvar
// handlers; it is kept off the serving address so profiling endpoints
// are never exposed where the API is.
//
// Endpoints: POST /v1/discover (?trace=1 embeds the span tree),
// /v1/discover/batch, /v1/execute, /v1/insert, /v1/insert/batch,
// /v1/snapshot; GET /v1/stats, /healthz, /metrics (Prometheus text),
// /debug/traces (recent request traces; ?slow=1 filters).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"squid"
	"squid/internal/buildinfo"
	"squid/internal/datagen"
	"squid/internal/server"
	"squid/internal/wal"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		dataset      = flag.String("dataset", "imdb", "dataset to build when no snapshot exists: imdb, dblp, or adult")
		snapPath     = flag.String("snapshot", "", "αDB snapshot file: warm-boot from it when present, save after cold builds, re-save on drain")
		snapInterval = flag.Duration("snapshot-interval", 0, "periodic snapshot re-save interval (0 = only on demand and on drain)")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently running discovery/execute requests (0 = GOMAXPROCS)")
		queueDepth   = flag.Int("queue-depth", 0, "admission waiters beyond max-inflight before shedding 429s (0 = 4x max-inflight)")
		workers      = flag.Int("batch-workers", 0, "example sets one /v1/discover/batch request discovers at once (Params.Workers; 0 = GOMAXPROCS); worst-case discovery parallelism is max-inflight x batch-workers")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request deadline (0 = none)")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		qre          = flag.Bool("qre", false, "use the optimistic QRE parameter preset (§7.5)")
		walPath      = flag.String("wal", "", "write-ahead log file: every insert's epoch delta is logged and replayed at boot, so acknowledged writes survive crashes between snapshots")
		walFsync     = flag.String("wal-fsync", "always", "WAL durability policy: always (fsync before ack), interval (background fsync), never (OS decides)")
		walFsyncIvl  = flag.Duration("wal-fsync-interval", 100*time.Millisecond, "background fsync cadence under -wal-fsync=interval")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		debugAddr    = flag.String("debug-addr", "", "debug listener for pprof and expvar (empty = off); keep it off the serving address")
		slowQuery    = flag.Duration("slow-query-threshold", time.Second, "requests at or above this wall time log a slow-query line and surface under /debug/traces?slow=1 (0 = disabled)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "squid-server: -log-format %q: want text or json\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	bi := buildinfo.Get()
	logger.Info("squid-server starting", "build", bi.String(),
		"go_version", bi.GoVersion, "version", bi.Version, "revision", bi.Revision)

	sys, coldBuilt, err := bootSystem(logger, *dataset, *snapPath)
	if err != nil {
		fatal("boot failed", "err", err)
	}
	if *walPath != "" {
		policy, err := wal.ParsePolicy(*walFsync)
		if err != nil {
			fatal("bad -wal-fsync", "err", err)
		}
		start := time.Now()
		info, err := sys.RecoverWAL(*walPath, wal.Options{Policy: policy, Interval: *walFsyncIvl})
		if err != nil {
			// Refusing to serve beats silently losing acknowledged writes:
			// a gap in the log or an unreplayable record needs an operator.
			fatal("wal recovery failed", "path", *walPath, "err", err)
		}
		logger.Info("wal recovered", "path", *walPath,
			"elapsed", time.Since(start).Round(time.Millisecond).String(),
			"replayed", info.Replayed, "truncated_bytes", info.TruncatedBytes,
			"epoch_seq", info.LastSeq, "fsync", string(policy))
	}
	if *qre {
		sys.SetParams(squid.QREParams())
	}
	{
		p := sys.Params()
		p.Workers = *workers
		sys.SetParams(p)
	}

	reqTimeout := *timeout
	if reqTimeout == 0 {
		reqTimeout = -1 // Config: negative disables the deadline
	}
	slowThreshold := *slowQuery
	if slowThreshold == 0 {
		slowThreshold = -1 // Config: negative disables slow-query marking
	}
	srv := server.New(sys, server.Config{
		MaxInFlight:        *maxInFlight,
		QueueDepth:         *queueDepth,
		RequestTimeout:     reqTimeout,
		SnapshotPath:       *snapPath,
		SnapshotInterval:   *snapInterval,
		Logger:             logger,
		SlowQueryThreshold: slowThreshold,
	})
	if coldBuilt && *snapPath != "" {
		// Save the cold build through the server's atomic
		// write-then-rename path, so the next boot is warm.
		if _, err := srv.SaveSnapshot(); err != nil {
			fatal("saving snapshot failed", "err", err)
		}
		logger.Info("snapshot saved, next boot is warm", "path", *snapPath)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The debug listener carries the profiling surfaces — pprof and
	// expvar — on its own mux and address, so they are mounted explicitly
	// (never via net/http/pprof's DefaultServeMux side effects) and never
	// reachable through the serving listener.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", httppprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		dmux.Handle("/debug/vars", expvar.Handler())
		dbgSrv := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug listener up (pprof, expvar)", "addr", *debugAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
	}

	// Graceful drain on SIGINT/SIGTERM: stop accepting, flip /healthz
	// to 503 for the load balancer, finish in-flight requests, save the
	// final snapshot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		logger.Info("signal received, draining", "timeout", drainWait.String())
		srv.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Warn("shutdown incomplete, some requests may have been cut off", "err", err)
		}
		if err := srv.Finalize(); err != nil {
			logger.Error("final snapshot failed", "err", err)
		} else if *snapPath != "" {
			logger.Info("final snapshot saved", "path", *snapPath)
		}
	}()

	logger.Info("serving", "dataset", *dataset, "addr", *addr,
		"max_inflight", *maxInFlight, "queue_depth", *queueDepth, "timeout", timeout.String())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("listen failed", "addr", *addr, "err", err)
	}
	<-done
}

// bootSystem produces the abduction-ready system: a warm boot from the
// snapshot file when one exists, otherwise a cold build of the selected
// dataset (coldBuilt reports which; the caller persists cold builds
// through the server's snapshot path).
func bootSystem(logger *slog.Logger, dataset, snapPath string) (sys *squid.System, coldBuilt bool, err error) {
	if snapPath != "" {
		f, err := os.Open(snapPath)
		switch {
		case err == nil:
			defer f.Close()
			start := time.Now()
			sys, err := squid.Load(f)
			if err != nil {
				return nil, false, fmt.Errorf("loading snapshot %s: %w (delete the file to rebuild)", snapPath, err)
			}
			if got := sys.AlphaDB().DB().Name; got != dataset && !strings.HasPrefix(got, dataset+"_") {
				return nil, false, fmt.Errorf("snapshot %s holds dataset %q, not %q", snapPath, got, dataset)
			}
			logger.Info("αDB loaded (warm boot)", "path", snapPath,
				"elapsed", time.Since(start).Round(time.Millisecond).String())
			return sys, false, nil
		case !errors.Is(err, fs.ErrNotExist):
			// Anything but "no snapshot yet" must not fall through to a
			// cold build: the cold build would overwrite a snapshot that
			// holds acknowledged writes.
			return nil, false, fmt.Errorf("opening snapshot %s: %w", snapPath, err)
		}
	}

	var db *squid.Database
	switch dataset {
	case "imdb":
		db = datagen.GenerateIMDb(datagen.DefaultIMDbConfig()).DB
	case "dblp":
		db = datagen.GenerateDBLP(datagen.DefaultDBLPConfig()).DB
	case "adult":
		db = datagen.GenerateAdult(datagen.DefaultAdultConfig()).DB
	default:
		return nil, false, fmt.Errorf("unknown dataset %q (want imdb, dblp, or adult)", dataset)
	}
	logger.Info("building abduction-ready database (cold boot)", "dataset", dataset)
	start := time.Now()
	sys, err = squid.Build(db, squid.DefaultBuildConfig())
	if err != nil {
		return nil, false, fmt.Errorf("offline phase: %w", err)
	}
	logger.Info("αDB ready", "elapsed", time.Since(start).Round(time.Millisecond).String())
	return sys, true, nil
}
