// Command squid-bench runs the experiment harness that regenerates every
// table and figure of the paper's evaluation on the synthetic datasets.
//
// Usage:
//
//	squid-bench -list
//	squid-bench -exp fig10
//	squid-bench -exp all [-scale full|test]
//
// It reproduces the paper's figures only. Performance is measured by
// the benchmark of record, `go run ./benchmark` (see benchmark/README.md
// and BENCHMARK.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"squid/internal/buildinfo"
	"squid/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id to run (see -list), or \"all\"")
		scale = flag.String("scale", "full", "dataset scale: full or test")
		list  = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	// Build identity on stderr, so a run's tables are always attributable
	// to a binary.
	fmt.Fprintln(os.Stderr, "squid-bench:", buildinfo.Get().String())

	if code := run(context.Background(), os.Stdout, *exp, *scale, *list); code != 0 {
		os.Exit(code)
	}
}

// run dispatches the selected experiment, writing its tables to out, and
// returns the process exit code (0 ok, 2 usage).
func run(ctx context.Context, out io.Writer, exp, scale string, list bool) int {
	if list || exp == "" {
		fmt.Fprintln(out, "available experiments:")
		for _, r := range experiments.Registry() {
			fmt.Fprintf(out, "  %-8s %s\n", r.ID, r.Description)
		}
		fmt.Fprintln(out, "  all      run every experiment above")
		if !list {
			return 2
		}
		return 0
	}

	var suite *experiments.Suite
	switch scale {
	case "full":
		suite = experiments.NewSuite(experiments.FullScale())
	case "test":
		suite = experiments.NewSuite(experiments.TestScale())
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want full or test)\n", scale)
		return 2
	}

	if exp == "all" {
		experiments.RunAll(ctx, suite, out)
		return 0
	}
	runner, ok := experiments.Lookup(exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", exp)
		return 2
	}
	runner.Run(ctx, suite, out)
	return 0
}
