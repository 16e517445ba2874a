package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The A/A self-check: the same code measured twice must agree with
// itself. It repeats what the acceptance driver does: per workload, two
// sets of n runs over seeds 1..n; a metric passes when the spread of each
// set (inter-quartile over median) and the gap between the sets' medians
// both stay within its bound. setup_s is exempt from the spread, as it is
// for the driver. Every run is a process of its own, because most of the
// noise is between processes, not inside one.

// runChild runs one workload in a child process and returns its result.
func runChild(ctx context.Context, workload string, seed int64, seconds float64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	return lastResult(&stdout)
}

// lastResult decodes the last line of a run's standard output.
func lastResult(stdout io.Reader) (*result, error) {
	var last string
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &res, nil
}

// verdict compares two sets of values of one metric.
type verdict struct {
	medianA, medianB float64
	spreadA, spreadB float64
	gap              float64 // how much worse the worse set's median is, as a share of the other's
	pass             bool
}

func judge(m metricSpec, a, b []float64) verdict {
	v := verdict{
		medianA: median(a), medianB: median(b),
		spreadA: iqrShare(a), spreadB: iqrShare(b),
	}
	v.gap = worseBy(v.medianA, v.medianB, m.Better)
	if back := worseBy(v.medianB, v.medianA, m.Better); back > v.gap {
		v.gap = back
	}
	v.pass = v.gap <= m.Bound
	if m.Name != "setup_s" {
		v.pass = v.pass && v.spreadA <= m.Bound && v.spreadB <= m.Bound
	}
	return v
}

// runAA runs the self-check and prints its report as Markdown; it is
// what benchmark/NOISE.md holds. It returns the exit code.
func runAA(ctx context.Context, n int, seconds float64, out io.Writer) int {
	fmt.Fprintf(out, "# A/A noise check\n\n")
	fmt.Fprintf(out, "Two sets of %d runs per workload of identical code, seeds 1..%d, -seconds %g, alternating which set runs first. ", n, n, seconds)
	fmt.Fprintf(out, "Spread is the distance between the first and third quartile of a set (Python's `statistics.quantiles(v, n=4)`) over its median; gap is how much worse the worse set's median is. ")
	fmt.Fprintf(out, "A row passes when both spreads (except for `setup_s`) and the gap are within the bound.\n\n")
	fmt.Fprintf(out, "Load average at the start: %.2f.\n\n", loadAverage())
	failed := 0
	// The widest spread and gap, each as a share of its bound, say how
	// much room the bounds leave.
	var worstSpread, worstGap float64
	var worstSpreadAt, worstGapAt string
	for _, w := range workloadSpecs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			order := [2]int{i % 2, 1 - i%2}
			for _, s := range order {
				res, err := runChild(ctx, w.Name, int64(i+1), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !res.Correct || res.Failed != 0 {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: correct %v, %d of %d operations failed\n", w.Name, i+1, res.Correct, res.Failed, res.Attempted)
					return 1
				}
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Fprintf(out, "## %s\n\n", w.Name)
		fmt.Fprintf(out, "| metric | unit | median A | median B | gap | spread A | spread B | bound | verdict |\n")
		fmt.Fprintf(out, "|---|---|---:|---:|---:|---:|---:|---:|---|\n")
		for _, m := range endToEndSpecs {
			v := judge(m, sets[0][m.Name], sets[1][m.Name])
			if m.Name != "setup_s" {
				if share := math.Max(v.spreadA, v.spreadB) / m.Bound; share > worstSpread {
					worstSpread, worstSpreadAt = share, m.Name+" on "+w.Name
				}
			}
			if share := v.gap / m.Bound; share > worstGap {
				worstGap, worstGapAt = share, m.Name+" on "+w.Name
			}
			word := "pass"
			if !v.pass {
				word = "FAIL"
				failed++
			}
			fmt.Fprintf(out, "| %s | %s | %.4f | %.4f | %.2f%% | %.2f%% | %.2f%% | %g%% | %s |\n",
				m.Name, m.Unit, v.medianA, v.medianB, 100*v.gap, 100*v.spreadA, 100*v.spreadB, 100*m.Bound, word)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "Widest spread: %.0f%% of its bound (%s). Widest gap: %.0f%% of its bound (%s).\n\n", 100*worstSpread, worstSpreadAt, 100*worstGap, worstGapAt)
	if failed > 0 {
		fmt.Fprintf(out, "**%d rows failed.**\n", failed)
		return 1
	}
	fmt.Fprintf(out, "All rows pass.\n")
	return 0
}
