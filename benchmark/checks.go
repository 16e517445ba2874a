package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"squid/internal/metrics"
	"squid/internal/server"
	"squid/internal/wal"
)

// The correctness gate. A run whose outputs are wrong reports
// "correct": false and exits non-zero; its timings mean nothing.

// gate collects what failed.
type gate struct{ failures []string }

func (g *gate) failf(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

func (g *gate) ok() bool { return len(g.failures) == 0 }

// checkPool runs every request of the pool in process on the freshly
// loaded system, fingerprints its output for the HTTP comparison, and
// returns the mean f-score against ground truth (paper Fig. 10). The
// pass also fills the selectivity cache.
func (r *runner) checkPool(ctx context.Context, g *gate) (float64, error) {
	var sum float64
	for i := range r.in.pool {
		req := &r.in.pool[i]
		d, err := r.st.sys.DiscoverContext(ctx, req.Examples)
		r.count(err)
		if err != nil {
			return 0, fmt.Errorf("discover %s %v: %w", req.Intent, req.Examples, err)
		}
		req.outHash, req.outLen = fingerprint(d.Output), len(d.Output)
		sum += metrics.Compare(d.Output, req.truth).FScore
	}
	fscore := sum / float64(len(r.in.pool))
	if fscore < fscoreFloor {
		g.failf("fscore_mean %.4f is below the pinned floor %.2f", fscore, fscoreFloor)
	}
	return fscore, nil
}

// checkHTTP sends every request of the pool over loopback and compares
// the served Output with the in-process one for the same examples.
func (r *runner) checkHTTP(ctx context.Context, g *gate) error {
	for i := range r.in.pool {
		req := &r.in.pool[i]
		var resp server.DiscoverResponse
		err := r.post(ctx, "/v1/discover", req.body, 0, "", &resp)
		r.count(err)
		if err != nil {
			return fmt.Errorf("POST /v1/discover %s: %w", req.Intent, err)
		}
		if len(resp.Output) != req.outLen || fingerprint(resp.Output) != req.outHash {
			g.failf("%s %v: HTTP output (%d values) differs from the in-process output (%d values)",
				req.Intent, req.Examples, len(resp.Output), req.outLen)
		}
	}
	return nil
}

// preparePlans discovers the execute block's plans and checks that
// executing a discovered plan yields exactly the discovery's output.
func (r *runner) preparePlans(ctx context.Context, g *gate) error {
	for i := range r.in.planRequests {
		req := &r.in.planRequests[i]
		intent := req.Intent
		d, err := r.st.sys.DiscoverContext(ctx, req.Examples)
		r.count(err)
		if err != nil {
			return fmt.Errorf("discover plan %s: %w", intent, err)
		}
		q := d.Plan()
		res, err := r.st.sys.ExecuteContext(ctx, q)
		r.count(err)
		if err != nil {
			return fmt.Errorf("execute plan %s: %w", intent, err)
		}
		if metrics.Compare(res.Strings(), d.Output).FScore != 1 {
			g.failf("%s: Execute(plan) returned %d values, Discovery.Output has %d, and the sets differ",
				intent, res.NumRows(), len(d.Output))
		}
		body, err := json.Marshal(server.ExecuteRequest{Query: server.FromEngineQuery(q)})
		if err != nil {
			return err
		}
		if r.overHTTP {
			var resp server.ExecuteResponse
			err := r.post(ctx, "/v1/execute", body, 0, "", &resp)
			r.count(err)
			if err != nil {
				return fmt.Errorf("POST /v1/execute %s: %w", intent, err)
			}
			if resp.NumRows != res.NumRows() {
				g.failf("%s: /v1/execute returned %d rows, the in-process Execute %d", intent, resp.NumRows, res.NumRows())
			}
		}
		r.plans = append(r.plans, plan{intent: intent, query: q, body: body})
	}
	return nil
}

// replayTailBatches is how many batches the replay check inserts after
// its checkpoint.
const replayTailBatches = 4

// replayResult is what the replay check measured.
type replayResult struct {
	rows    int
	seconds float64
}

// checkReplay proves the boot path on the live state: checkpoint the
// system with Save, insert a few more batches, then boot a second
// system from the checkpoint and the write-ahead log. RecoverWAL must
// skip the records the checkpoint covers, replay the tail, and reach the
// live system's row counts and byte-identical discoveries. (A replay of
// the whole log from the set-up snapshot costs one O(relation) clone per
// record, several seconds on ingest_read, so the check replays a tail.)
func (r *runner) checkReplay(ctx context.Context, dir string, g *gate) (replayResult, error) {
	var out replayResult
	ckpt := filepath.Join(dir, "checkpoint.sqas")
	if _, err := saveSnapshot(r.st.sys, ckpt); err != nil {
		return out, fmt.Errorf("replay check: %w", err)
	}
	if _, err := r.insertBlock(ctx, replayTailBatches); err != nil {
		return out, err
	}
	// RecoverWAL opens the log file itself; a copy keeps the live log's
	// handle and the replaying one apart.
	logCopy := filepath.Join(dir, "replay.wal")
	data, err := os.ReadFile(r.st.walPath)
	if err != nil {
		return out, fmt.Errorf("replay check: %w", err)
	}
	if err := os.WriteFile(logCopy, data, 0o644); err != nil {
		return out, fmt.Errorf("replay check: %w", err)
	}
	booted, err := loadSnapshot(ckpt)
	if err != nil {
		return out, fmt.Errorf("replay check: %w", err)
	}
	t := time.Now()
	info, err := booted.RecoverWAL(logCopy, wal.Options{Policy: walPolicy})
	out.seconds = time.Since(t).Seconds()
	if err != nil {
		g.failf("replay check: RecoverWAL: %v", err)
		return out, nil
	}
	defer booted.WAL().Close()
	out.rows = info.Replayed * insertBatchOps
	if info.Replayed != replayTailBatches {
		g.failf("replay check: %d records replayed, want the %d after the checkpoint", info.Replayed, replayTailBatches)
	}
	live, replayed := r.st.sys.ExecutableDB(), booted.ExecutableDB()
	for _, name := range live.RelationNames() {
		rel := replayed.Relation(name)
		if rel == nil || rel.NumRows() != live.Relation(name).NumRows() {
			g.failf("replay check: relation %s has %d rows live and not as many replayed", name, live.Relation(name).NumRows())
		}
	}
	for i := range r.in.pool {
		req := &r.in.pool[i]
		want, err1 := r.st.sys.DiscoverContext(ctx, req.Examples)
		got, err2 := booted.DiscoverContext(ctx, req.Examples)
		if err1 != nil || err2 != nil {
			return out, fmt.Errorf("replay check: discover %s: live %v, replayed %v", req.Intent, err1, err2)
		}
		if want.Explain() != got.Explain() || fingerprint(want.Output) != fingerprint(got.Output) {
			g.failf("replay check: %s %v: the replayed system's discovery differs from the live one", req.Intent, req.Examples)
			break
		}
	}
	return out, nil
}
