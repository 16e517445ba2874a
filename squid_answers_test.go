package squid

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/metrics"
)

// goldenAnswers is where TestPoolAnswers holds the pool's answers.
const goldenAnswers = "testdata/answers/imdb.golden"

// poolSizes and poolDraws are the |E| values and the draws per size of
// TestPoolAnswers.
var poolSizes = []int{2, 5, 10, 20, 30}

const poolDraws = 3

// TestPoolAnswers holds the answers of the benchmark's request pool, at
// bench scale, to testdata/answers/imdb.golden: for every IMDb benchmark
// intent and every |E| of poolSizes its ground truth can supply,
// poolDraws fixed draws of examples, each discovered on three systems —
// a fresh Build, its Save → Load, and the state the benchmark's reads
// meet (afterInserts: Save, Load and 24 insert batches). One line a
// discovery names the arm, intent, |E| and draw, then the filter count,
// the output size and a SHA-256 of Explain() and Output, so a failure
// names the draw whose answer moved. A missing golden file is written
// and the test fails: a change that means to move answers deletes the
// file, runs the test once and reviews the file's diff.
func TestPoolAnswers(t *testing.T) {
	cfg := benchScale().IMDb
	g := datagen.GenerateIMDb(cfg)
	built, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := built.Save(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	inserted := afterInserts(t, built, cfg)

	type draw struct {
		at       string
		examples []string
	}
	var draws []draw
	rng := rand.New(rand.NewSource(1))
	for _, b := range benchqueries.IMDbBenchmarks(g) {
		truth, err := benchqueries.GroundTruth(g.DB, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range poolSizes {
			if len(truth) < n {
				continue
			}
			for d := range poolDraws {
				draws = append(draws, draw{fmt.Sprintf("%s %d %d", b.ID, n, d), metrics.Sample(rng, truth, n)})
			}
		}
	}
	var got strings.Builder
	for _, arm := range []struct {
		name string
		sys  *System
	}{{"build", built}, {"load", loaded}, {"inserted", inserted}} {
		for _, d := range draws {
			fmt.Fprintf(&got, "%s %s %s\n", arm.name, d.at, poolAnswer(arm.sys, d.examples))
		}
	}

	want, err := os.ReadFile(goldenAnswers)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(goldenAnswers), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenAnswers, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and run the test again", goldenAnswers)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d:\n got  %s\n want %s", goldenAnswers, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Errorf("%s: %d lines, the golden file holds %d", goldenAnswers, len(gotLines), len(wantLines))
	}
}

// poolAnswer is one discovery's golden line past its name: the filter
// count, the output size and the SHA-256 of Explain() and Output — or
// the error the discovery returned.
func poolAnswer(sys *System, examples []string) string {
	d, err := sys.DiscoverContext(context.Background(), examples)
	if err != nil {
		return "error: " + err.Error()
	}
	sum := sha256.Sum256([]byte(d.Explain() + strings.Join(d.Output, "\n")))
	return fmt.Sprintf("%d %d %x", len(d.Filters), len(d.Output), sum)
}
