package squid

import (
	"context"
	"testing"

	"squid/internal/datagen"
)

// discoverExplain runs one discovery and renders it to the byte form the
// determinism tests compare: the full Explain block (base query, both
// SQL forms, every Algorithm 1 decision) plus the projected output.
func discoverExplain(t *testing.T, sys *System, examples []string) string {
	t.Helper()
	d, err := sys.DiscoverContext(context.Background(), examples)
	if err != nil {
		t.Fatalf("DiscoverContext(%v): %v", examples, err)
	}
	fp := d.Explain()
	for _, v := range d.Output {
		fp += v + "\n"
	}
	return fp
}

// TestParallelDiscoverDeterministic pins the tentpole's correctness
// contract: Params.Workers changes wall-clock, never output. Every
// worker count must produce a byte-identical Explain (and output) to
// the serial run, on both the small academics fixture and a generated
// IMDb dataset with enough properties to actually fan out. Run under
// -race this also exercises the pool for data races.
func TestParallelDiscoverDeterministic(t *testing.T) {
	type workload struct {
		name string
		sys  *System
		sets [][]string
	}
	var loads []workload

	acad, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	loads = append(loads, workload{"academics", acad, [][]string{
		{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"},
		{"Thomas Cormen", "Jiawei Han"},
	}})

	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 600, NumMovies: 250, NumCompany: 12})
	imdb, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	person := g.DB.Relation("person")
	var comedians []string
	for _, id := range g.Comedians[:5] {
		row, ok := imdb.AlphaDB().Entity("person").RowByID(id)
		if !ok {
			t.Fatalf("comedian id %d missing from αDB", id)
		}
		comedians = append(comedians, person.Column("name").Get(row).Str())
	}
	loads = append(loads, workload{"imdb", imdb, [][]string{
		comedians,
		{person.Column("name").Get(0).Str(), person.Column("name").Get(1).Str(), person.Column("name").Get(2).Str()},
	}})

	for _, load := range loads {
		load := load
		t.Run(load.name, func(t *testing.T) {
			setWorkers := func(w int) {
				p := load.sys.Params()
				p.Workers = w
				load.sys.SetParams(p)
			}
			// Serial reference first, cold cache per run so every arm
			// does the full abduction work rather than hitting memoized
			// selectivities.
			reference := make([]string, len(load.sets))
			setWorkers(1)
			for i, ex := range load.sets {
				load.sys.AlphaDB().SelectivityCache().Invalidate()
				reference[i] = discoverExplain(t, load.sys, ex)
			}
			for _, w := range []int{2, 3, 8, 0} { // 0 = GOMAXPROCS
				setWorkers(w)
				for i, ex := range load.sets {
					load.sys.AlphaDB().SelectivityCache().Invalidate()
					if got := discoverExplain(t, load.sys, ex); got != reference[i] {
						t.Errorf("workers=%d set=%d output diverges from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
							w, i, reference[i], w, got)
					}
				}
			}
		})
	}
}

// TestWorkersParamZeroAndNegative pins the Params.Workers edge values:
// 0 (GOMAXPROCS) and negative (treated as default) must both discover
// successfully, not panic or deadlock.
func TestWorkersParamZeroAndNegative(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, -1} {
		p := sys.Params()
		p.Workers = w
		sys.SetParams(p)
		d, err := sys.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden"})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(d.Output) == 0 {
			t.Fatalf("workers=%d: empty output", w)
		}
	}
}
