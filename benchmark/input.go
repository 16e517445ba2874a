package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"squid"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/metrics"
	"squid/internal/relation"
	"squid/internal/server"
)

// request is one discovery of the pool: example values drawn from the
// ground truth of one benchmark intent.
type request struct {
	Intent   string
	Examples []string
	// body is the pre-marshalled POST /v1/discover body.
	body []byte
	// truth is the intent's ground-truth output, shared by its draws.
	truth []string
	// outHash and outLen fingerprint the in-process Discovery.Output on
	// the freshly loaded system; the HTTP check compares against them.
	outHash uint64
	outLen  int
}

// inputs is everything a run is driven by. The dataset is fixed (the
// generator's own seed); the request pool and the insert rows derive
// from the run's seed.
type inputs struct {
	seed int64
	// db is the generated database, released after set-up.
	db         *relation.Database
	rows       int
	relBytes   int64
	numPersons int
	numMovies  int
	generateS  float64
	pool       []request
	// planRequests are the discoveries whose plans the execute block
	// runs, one per intent of executeIntents. Their examples do not
	// depend on the seed: a plan's cost follows its filters, and runs of
	// different seeds must execute the same plans to be comparable.
	planRequests []request
}

// planSeed draws the examples of planRequests.
const planSeed = 20190625

func imdbConfig(scale int) datagen.IMDbConfig {
	cfg := datagen.DefaultIMDbConfig()
	cfg.NumPersons *= scale
	cfg.NumMovies *= scale
	cfg.NumCompany *= scale
	return cfg
}

// generateInputs builds the dataset and draws the request pool: for
// every IMDb benchmark intent with at least five ground-truth values,
// draws example sets at each |E| of exampleSizes the truth can supply.
// Every seed yields the same number of requests per intent and size, so
// runs differ in the sampled examples, never in the mix.
func generateInputs(scale, draws int, seed int64) (*inputs, error) {
	start := time.Now()
	g := datagen.GenerateIMDb(imdbConfig(scale))
	in := &inputs{
		seed:       seed,
		db:         g.DB,
		rows:       g.DB.TotalRows(),
		relBytes:   g.DB.ByteSize(),
		numPersons: g.DB.Relation("person").NumRows(),
		numMovies:  g.DB.Relation("movie").NumRows(),
		generateS:  time.Since(start).Seconds(),
	}
	rng := rand.New(rand.NewSource(seed))
	for _, b := range benchqueries.IMDbBenchmarks(g) {
		truth, err := benchqueries.GroundTruth(g.DB, b)
		if err != nil {
			return nil, fmt.Errorf("ground truth: %w", err)
		}
		for _, intent := range executeIntents {
			if b.ID == intent && len(truth) > 0 {
				ex := metrics.Sample(rand.New(rand.NewSource(planSeed)), truth, executePlanSize)
				in.planRequests = append(in.planRequests, request{Intent: b.ID, Examples: ex, truth: truth})
			}
		}
		if len(truth) < exampleSizes[0] {
			continue
		}
		for _, n := range exampleSizes {
			if len(truth) < n {
				continue
			}
			for d := 0; d < draws; d++ {
				ex := metrics.Sample(rng, truth, n)
				body, err := json.Marshal(server.DiscoverRequest{Examples: ex})
				if err != nil {
					return nil, err
				}
				in.pool = append(in.pool, request{Intent: b.ID, Examples: ex, body: body, truth: truth})
			}
		}
	}
	if len(in.pool) == 0 || len(in.planRequests) == 0 {
		return nil, fmt.Errorf("empty request pool or no plan request")
	}
	rng.Shuffle(len(in.pool), func(i, j int) { in.pool[i], in.pool[j] = in.pool[j], in.pool[i] })
	return in, nil
}

// insertBatch returns the k-th insert batch of the run: facts over ids
// the generator made, then new persons with ids no earlier batch used.
// It depends only on the seed and k, so a replayed run inserts the same
// rows.
func (in *inputs) insertBatch(k int) []squid.InsertOp {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(k)))
	ops := make([]squid.InsertOp, 0, insertBatchOps)
	for i := 0; i < insertBatchFacts; i++ {
		ops = append(ops, squid.InsertOp{Rel: "castinfo", Vals: []squid.Value{
			squid.IntVal(int64(rng.Intn(in.numPersons))),
			squid.IntVal(int64(rng.Intn(in.numMovies))),
			squid.IntVal(int64(rng.Intn(5))),
		}})
	}
	for i := insertBatchFacts; i < insertBatchOps; i++ {
		id := int64(in.numPersons + k*(insertBatchOps-insertBatchFacts) + i - insertBatchFacts)
		gender := "Female"
		if id%2 == 0 {
			gender = "Male"
		}
		ops = append(ops, squid.InsertOp{Rel: "person", Vals: []squid.Value{
			squid.IntVal(id),
			squid.StringVal(fmt.Sprintf("Bench Person %d", id)),
			squid.StringVal(gender),
			squid.IntVal(int64(1930 + rng.Intn(75))),
			squid.IntVal(int64(rng.Intn(14))),
		}})
	}
	return ops
}

// insertBody is insertBatch(k) as a POST /v1/insert/batch body.
func (in *inputs) insertBody(k int) ([]byte, error) {
	ops := in.insertBatch(k)
	req := server.InsertBatchRequest{Ops: make([]server.InsertRequest, len(ops))}
	for i, op := range ops {
		vals := make([]any, len(op.Vals))
		for j, v := range op.Vals {
			if v.IsString() {
				vals[j] = v.Str()
			} else {
				vals[j] = v.Int()
			}
		}
		req.Ops[i] = server.InsertRequest{Rel: op.Rel, Values: vals}
	}
	return json.Marshal(req)
}

// fingerprint hashes a sorted output list.
func fingerprint(values []string) uint64 {
	h := fnv.New64a()
	for _, v := range values {
		_, _ = h.Write([]byte(v)) // hash.Hash never fails
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}
