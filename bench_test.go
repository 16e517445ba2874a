package squid

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/experiments"
	"squid/internal/metrics"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (one bench per experiment id of DESIGN.md §2). They run the
// corresponding harness end to end at a reduced scale so `go test
// -bench=.` completes on a laptop; `cmd/squid-bench -exp all -scale
// full` runs them at the paper's scale. They reproduce the paper; the
// repository's performance is measured by `go run ./benchmark`.

// benchScale sizes the datasets for the testing.B harness.
func benchScale() experiments.Scale {
	s := experiments.TestScale()
	s.IMDb = datagen.IMDbConfig{Seed: 7, NumPersons: 2500, NumMovies: 1000, NumCompany: 50}
	s.DBLP = datagen.DBLPConfig{Seed: 3, NumAuthor: 1200, NumPubs: 2400}
	s.Adult = datagen.AdultConfig{Seed: 5, NumRows: 2500, ScaleFactor: 1}
	s.Runs = 2
	s.ExampleSizes = []int{5, 10, 15, 20}
	return s
}

// benchSuite is shared across benchmarks; dataset construction cost is
// paid once and excluded from timings via b.ResetTimer.
var benchSuite = experiments.NewSuite(benchScale())

func runExperiment(b *testing.B, fn func()) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
}

func BenchmarkFig9aAbductionTime(b *testing.B) {
	benchSuite.IMDb()
	benchSuite.DBLP()
	runExperiment(b, func() { _ = benchSuite.Fig9a(context.Background()) })
}

func BenchmarkFig9bDatasetSizes(b *testing.B) {
	benchSuite.IMDb()
	runExperiment(b, func() { _ = benchSuite.Fig9b(context.Background()) })
}

func BenchmarkFig10Accuracy(b *testing.B) {
	benchSuite.IMDb()
	benchSuite.DBLP()
	runExperiment(b, func() { _ = benchSuite.Fig10(context.Background()) })
}

func BenchmarkFig11QueryRuntime(b *testing.B) {
	benchSuite.IMDb()
	benchSuite.DBLP()
	runExperiment(b, func() { _ = benchSuite.Fig11(context.Background()) })
}

func BenchmarkFig12Disambiguation(b *testing.B) {
	benchSuite.IMDb()
	runExperiment(b, func() { _ = benchSuite.Fig12(context.Background()) })
}

func BenchmarkFig13CaseStudies(b *testing.B) {
	benchSuite.IMDb()
	benchSuite.DBLP()
	runExperiment(b, func() { _ = benchSuite.Fig13(context.Background()) })
}

func BenchmarkFig14AdultQRE(b *testing.B) {
	benchSuite.Adult()
	runExperiment(b, func() { _ = benchSuite.Fig14(context.Background()) })
}

func BenchmarkFig15aIMDbQRE(b *testing.B) {
	benchSuite.IMDb()
	runExperiment(b, func() { _ = benchSuite.Fig15a(context.Background()) })
}

func BenchmarkFig15bDBLPQRE(b *testing.B) {
	benchSuite.DBLP()
	runExperiment(b, func() { _ = benchSuite.Fig15b(context.Background()) })
}

func BenchmarkFig16aPULearning(b *testing.B) {
	benchSuite.Adult()
	runExperiment(b, func() { _ = benchSuite.Fig16a(context.Background()) })
}

func BenchmarkFig16bPUScalability(b *testing.B) {
	runExperiment(b, func() { _ = benchSuite.Fig16b(context.Background()) })
}

func BenchmarkFig18DatasetStats(b *testing.B) {
	benchSuite.IMDb()
	benchSuite.DBLP()
	benchSuite.Adult()
	runExperiment(b, func() { _ = benchSuite.Fig18() })
}

func BenchmarkFig23RhoSweep(b *testing.B) {
	benchSuite.IMDb()
	runExperiment(b, func() { _ = benchSuite.Fig23(context.Background()) })
}

func BenchmarkFig24GammaSweep(b *testing.B) {
	benchSuite.IMDb()
	runExperiment(b, func() { _ = benchSuite.Fig24(context.Background()) })
}

func BenchmarkFig25TauASweep(b *testing.B) {
	benchSuite.IMDb()
	runExperiment(b, func() { _ = benchSuite.Fig25(context.Background()) })
}

func BenchmarkFig26TauSSweep(b *testing.B) {
	benchSuite.IMDb()
	runExperiment(b, func() { _ = benchSuite.Fig26(context.Background()) })
}

func BenchmarkAblations(b *testing.B) {
	benchSuite.IMDb()
	runExperiment(b, func() { _ = benchSuite.Ablations(context.Background()) })
}

// --- micro-benchmarks of the core pipeline stages -------------------

// BenchmarkBuild measures the offline phase — a cold adb.Build, Fig
// 18's precomputation time column — at bench scale, serially
// (Config.Workers 1) and fanned out over GOMAXPROCS (Workers 0). The
// ratio of the two arms is what the repository benchmark reports at its
// 4x scale as adb.build_speedup.
func BenchmarkBuild(b *testing.B) {
	g := datagen.GenerateIMDb(benchScale().IMDb)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := adb.DefaultConfig()
			cfg.Workers = bc.workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := adb.Build(g.DB, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshot measures warm-boot persistence at bench scale:
// Save of a built system and Load of its snapshot, the two steps the
// offline phase takes after the cold Build above.
func BenchmarkSnapshot(b *testing.B) {
	g := datagen.GenerateIMDb(benchScale().IMDb)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			w.Grow(buf.Len())
			if err := sys.Save(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.SetBytes(int64(buf.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDiscovery measures one end-to-end online discovery on a
// 10-example funny-actors intent.
func BenchmarkDiscovery(b *testing.B) {
	g, alpha := benchSuite.IMDb()
	_ = alpha
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	person := g.DB.Relation("person")
	var examples []string
	for _, id := range g.Comedians[:10] {
		examples = append(examples, person.Get(int(id), "name").Str())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.DiscoverContext(context.Background(), examples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverPool measures a discovery the way the repository
// benchmark's intent workloads draw them — examples sampled from an
// intent's ground truth at the benchmark's 4x scale — at the two ends of
// the response size: IQ9 at |E| = 5 (a few dozen output values; context
// discovery and Algorithm 1 are the cost) and IQ12 at |E| = 30 (about
// 1,450; materializing and ordering the output is). Each is run warm, memos hot as in intent_warm, and cold, the
// memos emptied before every discovery with the timer stopped, as in
// intent_cold: the difference is the row sets the discovery builds. The
// warm arms run on a fresh Build; the inserted arms run warm on the
// state the benchmark discovers in (afterInserts: Save, Load and 24
// insert batches), where the derived count columns read from chunks the
// batches overwrote and the indexes through their tails. ns/op, B/op and
// allocs/op are per discovery.
func BenchmarkDiscoverPool(b *testing.B) {
	g, cfg := benchmarkScaleIMDb()
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	inserted := afterInserts(b, sys, cfg)
	truths := map[string][]string{}
	for _, q := range benchqueries.IMDbBenchmarks(g) {
		if truths[q.ID], err = benchqueries.GroundTruth(g.DB, q); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, arm := range []struct {
		name, intent string
		examples     int
	}{{"small-output", "IQ9", 5}, {"large-output", "IQ12", 30}} {
		rng := rand.New(rand.NewSource(1))
		draws := make([][]string, 16)
		values := 0
		for i := range draws {
			draws[i] = metrics.Sample(rng, truths[arm.intent], arm.examples)
			d, err := sys.DiscoverContext(ctx, draws[i]) // warms the memos
			if err != nil {
				b.Fatal(err)
			}
			values += len(d.Output)
			if _, err := inserted.DiscoverContext(ctx, draws[i]); err != nil {
				b.Fatal(err)
			}
		}
		for _, state := range []struct {
			suffix string
			sys    *System
			cold   bool
		}{{"", sys, false}, {"/cold", sys, true}, {"/inserted", inserted, false}} {
			cache := state.sys.AlphaDB().SelectivityCache()
			b.Run(arm.name+state.suffix, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if state.cold {
						b.StopTimer()
						cache.Invalidate()
						b.StartTimer()
					}
					if _, err := state.sys.DiscoverContext(ctx, draws[i%len(draws)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(values)/float64(len(draws)), "values/op")
			})
		}
	}
}

// BenchmarkAppendixF4AlphaDB times the αDB side of the Appendix F.4
// comparison: association-strength lookups answered from the precomputed
// derived property (a walk of one person's cast rows) and its strength
// histogram. The paper measures a data cube's query-time rollup one to
// two orders of magnitude slower; that side is not reproduced.
func BenchmarkAppendixF4AlphaDB(b *testing.B) {
	g, alpha := benchSuite.IMDb()
	ptg := alpha.Entity("person").DerivedByAttr("movie:genre")
	persons := g.DB.Relation("person").NumRows()
	b.Run("alphaDB", func(b *testing.B) {
		var counts []adb.CodeCount
		var scratch []int32
		for i := 0; i < b.N; i++ {
			counts, scratch = ptg.AppendCounts(counts[:0], scratch, i%persons)
		}
	})
	b.Run("alphaDB-selectivity", func(b *testing.B) {
		comedy, _ := ptg.LookupCode("Comedy")
		for i := 0; i < b.N; i++ {
			_ = ptg.SelectivityOfCode(comedy, 5)
		}
	})
}

// BenchmarkGroundTruthExecution measures the engine on the largest
// benchmark ground-truth queries.
func BenchmarkGroundTruthExecution(b *testing.B) {
	g, _ := benchSuite.IMDb()
	bench := benchqueries.IMDbBenchmarks(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range bench[:4] {
			if _, err := benchqueries.GroundTruth(g.DB, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// insertBenchBatch is the repository benchmark's insert batch at bench
// scale: 60 castinfo facts over generator ids, then 4 new persons with
// ids no earlier batch used (benchmark/input.go, same shape).
func insertBenchBatch(cfg datagen.IMDbConfig, k int) []InsertOp {
	rng := rand.New(rand.NewSource(int64(k) + 1))
	ops := make([]InsertOp, 0, 64)
	for i := 0; i < 60; i++ {
		ops = append(ops, InsertOp{Rel: "castinfo", Vals: []Value{
			IntVal(int64(rng.Intn(cfg.NumPersons))), IntVal(int64(rng.Intn(cfg.NumMovies))), IntVal(int64(rng.Intn(5))),
		}})
	}
	for i := 0; i < 4; i++ {
		id := int64(cfg.NumPersons + 4*k + i)
		ops = append(ops, InsertOp{Rel: "person", Vals: []Value{
			IntVal(id), StringVal(fmt.Sprintf("Bench Person %d", id)), StringVal("Female"),
			IntVal(int64(1930 + rng.Intn(75))), IntVal(int64(rng.Intn(14))),
		}})
	}
	return ops
}

// BenchmarkInsertBatch measures one publish of the repository
// benchmark's 64-row batch: ms/op is insert_batch_ms without HTTP and
// WAL, B/op is what a publish allocates (copy-on-write clones included).
func BenchmarkInsertBatch(b *testing.B) {
	cfg := benchScale().IMDb
	sys, err := Build(datagen.GenerateIMDb(cfg).DB, DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.InsertBatchContext(context.Background(), insertBenchBatch(cfg, i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertSingleFact measures a one-fact publish — the floor a
// publish pays before any row of a batch amortizes it.
func BenchmarkInsertSingleFact(b *testing.B) {
	cfg := benchScale().IMDb
	sys, err := Build(datagen.GenerateIMDb(cfg).DB, DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.InsertBatchContext(context.Background(), []InsertOp{{Rel: "castinfo", Vals: []Value{
			IntVal(int64(rng.Intn(cfg.NumPersons))), IntVal(int64(rng.Intn(cfg.NumMovies))), IntVal(int64(rng.Intn(5)))}}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// discoveredPlans returns the plans the repository benchmark's execute
// block runs — the |E| = 10 discoveries of IQ1, IQ9 and IQ16
// (benchmark/spec.go, same intents, same example seed) — on a system
// built over g.
func discoveredPlans(tb testing.TB, sys *System, g *datagen.IMDb) map[string]*Query {
	tb.Helper()
	plans := map[string]*Query{}
	for _, b := range benchqueries.IMDbBenchmarks(g) {
		if b.ID != "IQ1" && b.ID != "IQ9" && b.ID != "IQ16" {
			continue
		}
		truth, err := benchqueries.GroundTruth(g.DB, b)
		if err != nil {
			tb.Fatal(err)
		}
		d, err := sys.DiscoverContext(context.Background(), metrics.Sample(rand.New(rand.NewSource(20190625)), truth, 10))
		if err != nil {
			tb.Fatalf("%s: %v", b.ID, err)
		}
		plans[b.ID] = d.Plan()
	}
	if len(plans) != 3 {
		tb.Fatalf("discovered %d of the 3 benchmark plans", len(plans))
	}
	return plans
}

// benchmarkScaleIMDb generates datagen.DefaultIMDbConfig at the
// repository benchmark's 4x (benchmark/spec.go datasetScale).
func benchmarkScaleIMDb() (*datagen.IMDb, datagen.IMDbConfig) {
	cfg := datagen.DefaultIMDbConfig()
	cfg.NumPersons *= 4
	cfg.NumMovies *= 4
	cfg.NumCompany *= 4
	return datagen.GenerateIMDb(cfg), cfg
}

// afterInserts returns built in the state the repository benchmark's
// reads meet it: through Save and Load as the benchmark boots, then 24
// insert batches of the benchmark's shape — three insert blocks — so the
// derived count columns hold chunks the batches overwrote and the hash
// indexes carry tails.
func afterInserts(tb testing.TB, built *System, cfg datagen.IMDbConfig) *System {
	tb.Helper()
	var snap bytes.Buffer
	if err := built.Save(&snap); err != nil {
		tb.Fatal(err)
	}
	sys, err := Load(&snap)
	if err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < 24; k++ {
		if err := sys.InsertBatchContext(context.Background(), insertBenchBatch(cfg, k)); err != nil {
			tb.Fatal(err)
		}
	}
	return sys
}

// benchmarkScaleSystem returns a system in the state the repository
// benchmark's execute block meets it (afterInserts at the benchmark's
// scale) and the plans of that block. The plans are discovered after the
// inserts, on the epoch that executes them, so the memos hold the row
// sets of their filters: the benchmark discovers its plans once, before
// its inserts, and finds their sets again where the discoveries of its
// pool asked the current epoch for the same ones (intent_warm: all but
// one filter of the three plans).
func benchmarkScaleSystem(tb testing.TB) (*System, map[string]*Query) {
	tb.Helper()
	g, cfg := benchmarkScaleIMDb()
	built, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		tb.Fatal(err)
	}
	sys := afterInserts(tb, built, cfg)
	return sys, discoveredPlans(tb, sys, g)
}

// BenchmarkExecutePlans measures one execution of each plan of the
// repository benchmark's execute block, B/op and allocs/op being what an
// execution allocates. The bench arm runs at bench scale (2,500 persons,
// a fresh build): quick, and about a fifth of what the benchmark
// reports. The 4x arm runs at the benchmark's scale and state
// (benchmarkScaleSystem): its ms/op is execute_ms without the facade's
// competition when the memos hold the sets of the plans' filters. The
// cold arm empties the memos first: an executed plan stores no set, so
// every execution rebuilds all of its own — what a plan pays whose
// properties an insert has cloned since a discovery last asked, or that
// no discovery wrote. The generic arm runs the same plans in the same
// state on the join pipeline alone, no reduce stage before it — what
// engine.execute_ms prices. The rejected and part arms price what the
// reduce stage adds to a block it cannot answer whole, each beside the
// same plan on the join pipeline alone: rejected doubles the predicate of
// every joined relation, so every component is matched against the
// entity's properties and turned down and the block runs as written
// (IQ9's birth_year range is recognized and, seven persons in ten
// satisfying it, not worth handing the joins), part doubles the first
// one only (IQ9 and IQ16 join one dimension among the rows the other
// filters' sets leave; IQ1 has one component, so it is rejected again).
func BenchmarkExecutePlans(b *testing.B) {
	run := func(arm string, sys *System, plans map[string]*Query, execute func(*System, context.Context, *Query) (*ExecResult, error)) {
		for _, id := range []string{"IQ1", "IQ9", "IQ16"} {
			b.Run(arm+"/"+id, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if res, err := execute(sys, context.Background(), plans[id]); err != nil || res.NumRows() == 0 {
						b.Fatalf("%v: empty result or error %v", id, err)
					}
				}
			})
		}
	}
	g := datagen.GenerateIMDb(benchScale().IMDb)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	run("bench", sys, discoveredPlans(b, sys, g), (*System).ExecuteContext)
	sys, plans := benchmarkScaleSystem(b)
	run("4x", sys, plans, (*System).ExecuteContext)
	run("generic", sys, plans, unreduced)
	for _, arm := range []struct {
		name  string
		limit int // joined-relation predicates doubled at most
	}{{"rejected", math.MaxInt}, {"part", 1}} {
		doubled := map[string]*Query{}
		for id, q := range plans {
			m := q.Clone()
			for _, p := range q.Preds {
				if p.Rel != q.From[0] && len(m.Preds)-len(q.Preds) < arm.limit {
					m.Preds = append(m.Preds, p)
				}
			}
			doubled[id] = m
		}
		run(arm.name+"/4x", sys, doubled, (*System).ExecuteContext)
		run(arm.name+"/generic", sys, doubled, unreduced)
	}
	sys.alpha.SelectivityCache().Invalidate()
	run("cold", sys, plans, (*System).ExecuteContext)
}
