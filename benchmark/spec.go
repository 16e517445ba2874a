package main

import "math"

// This file is the benchmark's declaration: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric each is expected to move. The
// root BENCHMARK.json repeats the names, units, directions and bounds;
// TestSpecMatchesBenchmarkJSON keeps the two from drifting.

// Fixed sizes of one run. They are constants, not flags: two runs are
// comparable only when they did the same work per round.
const (
	// datasetScale multiplies datagen.DefaultIMDbConfig: 32,000 persons,
	// 10,000 movies, 480 companies, about 260k rows. ISSUE 13 sized the
	// benchmark at 8x; generation alone takes 5.6 s there, which does
	// not fit the per-run budget of the 92-run acceptance series.
	datasetScale = 4
	// poolDraws example sets are drawn per intent and example count.
	poolDraws = 25
	// executePlanSize is |E| of the three discoveries whose plans the
	// execute block runs.
	executePlanSize = 10
	// insertBatchOps is the number of rows of one insert batch:
	// insertBatchFacts castinfo facts over existing ids, the rest new
	// person entities.
	insertBatchOps   = 64
	insertBatchFacts = 60
	// insertBlockBatches is the number of batches of one insert block.
	// On ingest_read the block is ingestBlockBatches long instead: the
	// concurrent reader discovers for as long as the writer inserts, and
	// its p99 needs 1000 latencies a block to have ten samples beyond it.
	// 32 batches leave room for 2400 at the seed commit; should the writer
	// ever be done before the thousandth discovery, the reader goes on to
	// it (minSamplesFor), so the percentile reported never depends on the
	// machine's or the insert path's speed.
	insertBlockBatches = 8
	ingestBlockBatches = 32
	// passesPerRound is how many discover and execute blocks a round has
	// before its insert block. Discover latency over loopback moves from
	// block to block by more than within one, so a run wants many blocks
	// more than it wants long ones.
	passesPerRound = 3
	// minRounds is the least number of measured rounds, whatever
	// -seconds says; the traced run measures that many with its spans off
	// and as many with them on.
	minRounds = 3
	// setupCycles is how often the offline phase runs; setup_s is the
	// median. setupBursts bursts of the reference run before every cycle
	// and after the last.
	setupCycles = 3
	setupBursts = 3
	// discoverTail is the percentile behind discover_p99_ms. Every
	// discover block is sized to have ten samples beyond it; a block that
	// has not (discoveries failed) fails the run's gate.
	discoverTail = 0.99
	// ladderRounds is the number of pool passes per rung of the traced
	// run's boundary ladder.
	ladderRounds = 6
	// maxClients caps HTTP client goroutines (never above nproc).
	maxClients = 4
	// fscoreFloor is the pinned accuracy floor: mean f-score of the
	// abduced queries against ground truth over the request pool
	// (paper Fig. 10). Seeds 1-20 measure 0.90-0.93 at the seed commit.
	fscoreFloor = 0.85
)

// roundsAtDefault is the number of measured rounds of an untraced run at
// -seconds defaultSeconds: what fills that time at the seed commit. Other
// values of -seconds scale it, so the work of a run is a function of its
// arguments alone, never of the clock.
var roundsAtDefault = map[string]int{
	"intent_cold": 6,
	"intent_warm": 7,
	"serve_http":  7,
	"ingest_read": 9,
}

// measuredRounds maps -seconds to the run's round count.
func measuredRounds(workload string, seconds float64) int {
	n := int(math.Round(float64(roundsAtDefault[workload]) * seconds / defaultSeconds))
	if n < minRounds {
		n = minRounds
	}
	return n
}

// exampleSizes are the |E| values of the request pool.
var exampleSizes = []int{5, 10, 15, 20, 30}

// executeIntents are the intents whose |E| = executePlanSize discovery
// supplies the plans of the execute block.
var executeIntents = []string{"IQ1", "IQ9", "IQ16"}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"intent_cold", "in-process Discover, selectivity cache invalidated before every request: adb property scans and index row-set builds do the work, the cache does none"},
	{"intent_warm", "same requests with the cache hot: abduction context discovery, Algorithm 1 and row-set intersection dominate, row-set building is near zero"},
	{"serve_http", "the warm requests through internal/server over loopback from nproc clients: decode, admission, response build, JSON encode, recorder and transport dominate"},
	{"ingest_read", "over HTTP one client streams insert batches while the others discover: copy-on-write clones, per-property cache eviction, WAL append and GC beside reads"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// What says what a user of the system sees in this number.
	What string `json:"-"`
}

// issueBoundCap is the largest bound ISSUE 13 allows. The six timings
// exceed it; benchmark/NOISE.md says why, and TestSpecWithinLimits lets
// nothing else through.
const issueBoundCap = 0.10

// endToEndSpecs are reported by every workload of an untraced run, the
// timings at reference speed (reference.go). Bounds come from
// benchmark/NOISE.md. The acceptance driver uses a bound twice: a later
// change may be worse by that much, and ten runs of identical code must
// not spread by more. The second use sets the timings' bounds: at
// reference speed a set of ten spreads by 1 to 12% (4 to 26% as
// measured), and it has to stay inside the bound in a noisy half hour
// too. The widest spread seen for any timing is 63% of its bound.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "median of three offline cycles: squid.Build, Save to a file, Load, WAL open, server listen"},
	{"discover_p50_ms", "ms", "lower", 0.25, "client-observed latency of one discovery at the workload's boundary, median over blocks of the block's median"},
	{"discover_p99_ms", "ms", "lower", 0.25, "the same at the 99th percentile of each block"},
	{"discover_per_s", "1/s", "higher", 0.20, "discoveries completed per second of discover-block wall time"},
	{"execute_ms", "ms", "lower", 0.20, "mean time to execute one discovered plan"},
	{"insert_batch_ms", "ms", "lower", 0.20, "mean acknowledgement time of one 64-row insert batch"},
	{"heap_mb", "MB", "lower", 0.03, "HeapAlloc after a forced GC at the end, system and caches live"},
	{"snapshot_mb", "MB", "lower", 0.01, "bytes Save wrote"},
	{"fscore_mean", "score", "higher", 0.02, "mean f-score of Discovery.Output against ground truth over the request pool"},
	{"ok_share", "share", "higher", 0.001, "operations succeeded over attempted; a 429 or an error counts as failed"},
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Moves names the end-to-end metric and workloads this layer metric
	// is expected to move.
	Moves string `json:"-"`
}

// perLayerSpecs are reported by every workload of a traced run. The
// part of a name before the first dot is the module (layer).
var perLayerSpecs = []layerSpec{
	{"datagen.generate_s", "s", "lower", "harness cost only; moves nothing gated"},

	{"adb.build_s", "s", "lower", "setup_s, all workloads"},
	{"adb.build_serial_s", "s", "lower", "setup_s if Config.Workers=1 became the default"},
	{"adb.build_speedup", "x", "higher", "setup_s: serial over default build time (the Config.Workers question)"},
	{"adb.build_rows_per_s", "1/s", "higher", "setup_s, all workloads"},
	{"snapshot.save_s", "s", "lower", "setup_s, all workloads"},
	{"snapshot.load_s", "s", "lower", "setup_s, all workloads"},
	{"snapshot.bytes_per_row", "B", "lower", "snapshot_mb"},
	{"adb.heap_bytes_per_row", "B", "lower", "heap_mb, all workloads"},
	{"relation.bytes_per_row", "B", "lower", "heap_mb, all workloads"},

	{"abduction.discover_cold_us", "us", "lower", "discover_p50_ms on intent_cold, expected above 80% of it"},
	{"abduction.discover_warm_us", "us", "lower", "discover_p50_ms on intent_warm, expected above 80% of it"},
	{"index.rowset_first_touch_us", "us", "lower", "discover_p50_ms on intent_cold only (cold minus warm)"},
	{"abduction.contexts_us", "us", "lower", "discover_p50_ms on intent_warm"},
	{"abduction.alloc_kb_per_discover", "KB", "lower", "discover_per_s everywhere, discover_p99_ms through GC"},
	{"abduction.mallocs_per_discover", "count", "lower", "discover_per_s everywhere, discover_p99_ms through GC"},
	{"disambig.resolve_us", "us", "lower", "discover_p50_ms on intent_warm, serve_http"},
	{"index.inverted_lookup_us", "us", "lower", "discover_p50_ms on intent_warm, serve_http"},
	{"index.rowset_and_ns", "ns", "lower", "discover_p50_ms on intent_cold, intent_warm"},
	{"adb.selcache_hit_rate", "share", "higher", "discover_p50_ms: near 0 on intent_cold, near 1 on intent_warm, between on ingest_read"},
	{"adb.selcache_entries", "count", "lower", "heap_mb"},
	{"adb.selcache_resident_kb", "KB", "lower", "heap_mb"},
	{"sqlgen.plan_us", "us", "lower", "discover_p50_ms on serve_http"},
	{"squid.facade_overhead_us", "us", "lower", "discover_p50_ms on intent_warm, serve_http"},

	{"phase.resolve_us", "us", "lower", "splits abduction.discover_cold_us"},
	{"phase.contexts_us", "us", "lower", "splits abduction.discover_cold_us"},
	{"phase.selectivity_us", "us", "lower", "splits abduction.discover_cold_us"},
	{"phase.abduce_us", "us", "lower", "splits abduction.discover_cold_us"},
	{"phase.rowset_us", "us", "lower", "splits abduction.discover_cold_us"},
	{"phase.intersect_us", "us", "lower", "splits abduction.discover_cold_us"},
	{"trace.recorder_overhead_pct", "%", "lower", "discover_p50_ms on serve_http, where the server always attaches a recorder"},

	{"engine.execute_ms", "ms", "lower", "execute_ms everywhere"},
	{"engine.execute_rows_out", "count", "lower", "execute_ms everywhere"},
	{"engine.execute_alloc_mb", "MB", "lower", "execute_ms everywhere"},

	{"adb.insert_batch_ms", "ms", "lower", "insert_batch_ms everywhere, expected above 90% of it"},
	{"adb.insert_single_ms", "ms", "lower", "insert_batch_ms: the fixed clone and publish cost of a batch"},
	{"adb.insert_alloc_kb_per_row", "KB", "lower", "insert_batch_ms everywhere, discover_p99_ms on ingest_read through GC"},
	{"adb.epoch_publishes", "count", "lower", "heap_mb on ingest_read"},
	{"adb.epoch_combines", "count", "lower", "heap_mb on ingest_read"},
	{"adb.epoch_retained_mb", "MB", "lower", "heap_mb on ingest_read"},
	{"wal.append_us_per_row", "us", "lower", "insert_batch_ms on serve_http, ingest_read (small share)"},
	{"wal.bytes_per_row", "B", "lower", "insert_batch_ms on serve_http, ingest_read (small share)"},
	{"wal.barrier_always_ms", "ms", "lower", "informational: the disk's fsync, not gated"},
	{"wal.replay_rows_per_s", "1/s", "higher", "informational: boot time after a crash"},

	{"server.discover_handler_us", "us", "lower", "discover_p50_ms, discover_per_s on serve_http, ingest_read"},
	{"server.discover_transport_us", "us", "lower", "discover_p50_ms on serve_http, ingest_read"},
	{"server.discover_resp_bytes_p50", "B", "lower", "discover_p50_ms, discover_per_s on serve_http, ingest_read"},
	{"server.discover_resp_bytes_p99", "B", "lower", "discover_p99_ms on serve_http, ingest_read"},
	{"server.execute_handler_us", "us", "lower", "execute_ms on serve_http, ingest_read"},
	{"server.insert_handler_us", "us", "lower", "insert_batch_ms on serve_http, ingest_read"},
	{"server.shed_429", "count", "lower", "ok_share"},
	{"server.errors", "count", "lower", "ok_share"},

	{"go.gc_cycles", "count", "lower", "discover_p99_ms, heap_mb"},
	{"go.gc_pause_total_ms", "ms", "lower", "discover_p99_ms"},
	{"go.heap_peak_mb", "MB", "lower", "heap_mb"},

	{"bench.round_iqr_pct_max", "%", "lower", "the run's own noise: widest inter-quartile over median among the timing metrics' blocks"},
	{"bench.trace_overhead_pct", "%", "lower", "cost of the benchmark's spans: traced over untraced discover_p50_ms"},
	{"bench.ladder_unattributed_pct", "%", "lower", "share of the untraced discover_p50_ms the read ladder's self times do not explain"},
	{"bench.loadavg1", "load", "lower", "neighbours on the machine"},
	{"bench.reference_ms", "ms", "lower", "the machine's speed during the traced rounds: median burst of the reference, 20 ms at the speed the end-to-end timings are reported at; per-layer timings are as measured"},
}

func workloadKnown(name string) bool {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return true
		}
	}
	return false
}
