package adb

import (
	"runtime"
	"testing"
	"time"

	"squid/internal/datagen"
	"squid/internal/relation"
	"squid/internal/trace"
)

// TestEpochGCTelemetry checks the retired-epoch accounting: a publish
// charges the chain for the epoch it replaces, and the runtime's
// collection of that epoch credits it back.
func TestEpochGCTelemetry(t *testing.T) {
	a := buildFixture(t)
	if es := a.EpochStats(); es.Retired != 0 || es.RetainedBytes != 0 {
		t.Fatalf("fresh chain: retired=%d retained=%d", es.Retired, es.RetainedBytes)
	}

	// Pin the current epoch, then retire it with an insert: while the
	// pin lives, the gauges must report it as uncollected.
	pinned := a.Snapshot()
	err := a.InsertBatch([]InsertOp{
		{Rel: "person", Vals: []relation.Value{
			relation.IntVal(8), relation.StringVal("Gauge Probe"),
			relation.StringVal("Male"), relation.IntVal(40), relation.IntVal(1)}},
	}, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	es := a.EpochStats()
	if es.Retired != 1 {
		t.Fatalf("retired = %d want 1", es.Retired)
	}
	if es.RetainedBytes <= 0 {
		t.Fatalf("retained bytes = %d want > 0", es.RetainedBytes)
	}
	// ComputeStats carries the same gauges.
	if st := a.ComputeStats(); st.EpochRetired != 1 || st.EpochRetainedBytes != es.RetainedBytes {
		t.Errorf("ComputeStats gauges: retired=%d retained=%d", st.EpochRetired, st.EpochRetainedBytes)
	}
	runtime.KeepAlive(pinned)

	// Drop the pin: the finalizer must eventually credit the epoch
	// back. Finalizers need two GC cycles (one to queue, one to run),
	// and the runtime gives no stronger guarantee, so poll briefly.
	pinned = nil
	_ = pinned
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if es := a.EpochStats(); es.Retired == 0 && es.RetainedBytes == 0 {
			return
		}
		if time.Now().After(deadline) {
			es := a.EpochStats()
			t.Fatalf("retired epoch never collected: retired=%d retained=%d", es.Retired, es.RetainedBytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOneFactPublishRetainsWhatItCopies: the retired-epoch gauge charges
// what the publish actually copied — a chunk of each per-code vector
// and pair list the fact reaches, and the index tails — not the size of
// every relation it touched, nor the pair lists themselves (their
// storage is shared), and credits it back once the readers are gone.
// All of it fits 256 KB on the small fixture and at eight times the
// rows alike.
func TestOneFactPublishRetainsWhatItCopies(t *testing.T) {
	for _, cfg := range []datagen.IMDbConfig{
		{Seed: 11, NumPersons: 300, NumMovies: 150, NumCompany: 10},
		{Seed: 7, NumPersons: 2500, NumMovies: 1000, NumCompany: 50},
	} {
		a, err := Build(datagen.GenerateIMDb(cfg).DB, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var pairs int64
		for _, info := range a.Snapshot().Entities {
			for _, p := range info.Derived {
				if p.Fact1 == "castinfo" {
					pairs += p.PairBytes()
				}
			}
		}
		pinned := a.Snapshot()
		if err := a.InsertBatch([]InsertOp{{Rel: "castinfo", Vals: []relation.Value{relation.IntVal(17), relation.IntVal(23), relation.IntVal(1)}}}, trace.Span{}); err != nil {
			t.Fatal(err)
		}
		es := a.EpochStats()
		t.Logf("%d persons: a one-fact publish retains %d bytes; the pair lists it reaches hold %d", cfg.NumPersons, es.RetainedBytes, pairs)
		if es.Retired != 1 || es.RetainedBytes <= 0 {
			t.Fatalf("retired = %d, retained = %d bytes", es.Retired, es.RetainedBytes)
		}
		if limit := min(pairs, 256<<10); es.RetainedBytes > limit {
			t.Errorf("%d persons: one fact retains %d bytes, want under %d (the pair lists are %d)", cfg.NumPersons, es.RetainedBytes, limit, pairs)
		}
		runtime.KeepAlive(pinned)
		pinned = nil
		_ = pinned
		runtime.GC()
		runtime.GC()
		// Finalizers run on their own goroutine after the second cycle.
		deadline := time.Now().Add(5 * time.Second)
		for a.EpochStats().RetainedBytes != 0 || a.EpochStats().Retired != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("gauge did not return to zero: %+v", a.EpochStats())
			}
			runtime.GC()
			time.Sleep(5 * time.Millisecond)
		}
	}
}
