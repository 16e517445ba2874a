package squid

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"squid/internal/datagen"
)

// countdownCtx reports cancellation only after Err has been consulted
// budget times. It makes the cancellation point inside a single
// discovery deterministic: the first budget checks pass, the next one
// aborts — so a test can prove the abduction consults the context
// repeatedly mid-discovery, not just once at the door.
type countdownCtx struct {
	context.Context
	budget atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestDiscoverContextCancellation(t *testing.T) {
	// The IMDb generator (reduced scale) yields a discovery with many
	// candidate filters — genres, companies, decades — so one discovery
	// crosses many cancellation checkpoints.
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 800, NumMovies: 400, NumCompany: 20})
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	person := g.DB.Relation("person")
	examples := make([]string, 0, 5)
	for _, id := range g.Comedians[:5] {
		row, ok := sys.AlphaDB().Entity("person").RowByID(id)
		if !ok {
			t.Fatalf("comedian id %d has no αDB row", id)
		}
		examples = append(examples, person.Column("name").Get(row).Str())
	}

	// Baseline: a discovery under a counting context matches one under
	// context.Background(), and it consults the context several times (that is what
	// makes mid-discovery cancellation prompt). A discovery is serial, so
	// it consults ctx the same number of times, N, on every run.
	countChecks := func() int64 {
		t.Helper()
		probe := &countdownCtx{Context: context.Background()}
		probe.budget.Store(1 << 20)
		disc, err := sys.DiscoverContext(probe, examples)
		if err != nil {
			t.Fatal(err)
		}
		if serial, err := sys.DiscoverContext(context.Background(), examples); err != nil {
			t.Fatal(err)
		} else if disc.SQL != serial.SQL {
			t.Errorf("SQL under the counting context %q != under context.Background() %q", disc.SQL, serial.SQL)
		}
		return 1<<20 - probe.budget.Load()
	}
	checks := countChecks()
	if again := countChecks(); again != checks {
		t.Fatalf("two discoveries consulted ctx %d and %d times; a serial discovery's checkpoints are fixed", checks, again)
	}
	t.Logf("one discovery consults ctx %d times", checks)
	if checks < 3 {
		t.Fatalf("one discovery consulted ctx only %d times; cancellation would not be prompt", checks)
	}
	serial, err := sys.DiscoverContext(context.Background(), examples)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel at every checkpoint: with budget k the first k checks pass
	// and check k+1 trips. Each must abort with ctx's error and no
	// Discovery, and consult ctx no more after the check that tripped: a
	// checkpoint that ignored its error would run on to the next one.
	for k := int64(0); k < checks; k++ {
		mid := &countdownCtx{Context: context.Background()}
		mid.budget.Store(k)
		if d, err := sys.DiscoverContext(mid, examples); !errors.Is(err, context.Canceled) || d != nil {
			t.Errorf("cancellation at checkpoint %d of %d returned (%v, %v), want (nil, context.Canceled)", k, checks, d, err)
		}
		if after := -mid.budget.Load() - 1; after != 0 {
			t.Errorf("cancellation at checkpoint %d of %d: ctx consulted %d more times after it tripped", k, checks, after)
		}
	}

	// Pre-canceled context: returns promptly with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := sys.DiscoverContext(ctx, examples); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled discovery returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("pre-canceled discovery took %v; not prompt", elapsed)
	}

	// A deadline works the same way through errors.Is.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := sys.DiscoverContext(dctx, examples); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline returned %v, want context.DeadlineExceeded", err)
	}

	// ExecuteContext honors cancellation the same way, and the
	// uncanceled path still answers.
	plan := serial.Plan()
	if _, err := sys.ExecuteContext(ctx, plan); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled execute returned %v, want context.Canceled", err)
	}
	if res, err := sys.ExecuteContext(context.Background(), plan); err != nil || res.NumRows() == 0 {
		t.Errorf("plain execute after cancellation tests: rows=%v err=%v", res, err)
	}
}
