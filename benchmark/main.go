// Command benchmark is the repository's performance benchmark: one run
// generates its inputs from a seed, boots SQuID the way a deployment
// does (build, save, load, write-ahead log, server), checks the
// program's outputs, measures one workload, and prints every metric by
// name with its unit. The last line of standard output is the result as
// one JSON object. See README.md beside this file, and BENCHMARK.json at
// the root of the repository for the contract.
//
//	go run ./benchmark -workload intent_warm -seed 1 -seconds 16 -trace 0
//	go run ./benchmark -workload intent_warm -seed 1 -seconds 16 -trace 1
//	go run ./benchmark -aa 10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 16

func main() {
	workload := flag.String("workload", "", "workload to run: intent_cold, intent_warm, serve_http or ingest_read")
	seed := flag.Int64("seed", 1, "seed of the request pool and the insert rows")
	seconds := flag.Float64("seconds", defaultSeconds, "how long to measure at the seed commit's speed: it sets the number of measured rounds, which the clock then neither cuts nor extends")
	traced := flag.Int("trace", 0, "0 measures the end-to-end metrics; 1 is the traced run, which reports the per-layer metrics and writes a span file")
	aa := flag.Int("aa", 0, "self-check: run every workload 2n times as two alternating sets of n seeds and compare the sets against the bounds")
	flag.Parse()

	ctx := context.Background()
	if *aa > 0 {
		os.Exit(runAA(ctx, *aa, *seconds, os.Stdout))
	}
	cfg := config{
		workload:     *workload,
		seed:         *seed,
		seconds:      *seconds,
		traced:       *traced != 0,
		scale:        datasetScale,
		draws:        poolDraws,
		ladderRounds: ladderRounds,
		tail:         discoverTail,
		refSize:      referenceFull,
		dir:          filepath.Join("benchmark", "out"),
		out:          os.Stdout,
	}
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
