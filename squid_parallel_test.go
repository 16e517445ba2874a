package squid

import (
	"context"
	"sync"
	"testing"

	"squid/internal/datagen"
)

// TestParallelDiscoverDeterministic pins that a lone discovery is the
// same bytes however it is run: Params.Workers only bounds the batch
// fan-out, so at every setting a DiscoverContext's Explain and Output
// equal the serial reference, also when every set of a fixture runs at
// once on its own goroutine over one shared System and a selectivity
// cache emptied just before. Under -race this also checks concurrent
// lone discoveries for data races.
func TestParallelDiscoverDeterministic(t *testing.T) {
	type workload struct {
		name string
		sys  *System
		sets [][]string
	}
	acad, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 600, NumMovies: 250, NumCompany: 12})
	imdb, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := g.DB.Relation("person").Column("name")
	var comedians []string
	for _, id := range g.Comedians[:5] {
		row, ok := imdb.AlphaDB().Entity("person").RowByID(id)
		if !ok {
			t.Fatalf("comedian id %d missing from αDB", id)
		}
		comedians = append(comedians, names.Get(row).Str())
	}
	loads := []workload{
		{"academics", acad, [][]string{
			{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"},
			{"Thomas Cormen", "Jiawei Han"},
		}},
		{"imdb", imdb, [][]string{
			comedians,
			{names.Get(0).Str(), names.Get(1).Str(), names.Get(2).Str()},
		}},
	}
	for _, load := range loads {
		t.Run(load.name, func(t *testing.T) {
			cache := load.sys.AlphaDB().SelectivityCache()
			setWorkers := func(w int) {
				p := load.sys.Params()
				p.Workers = w
				load.sys.SetParams(p)
			}
			setWorkers(1)
			reference := make([]string, len(load.sets))
			for i, set := range load.sets {
				cache.Invalidate()
				d, err := load.sys.DiscoverContext(context.Background(), set)
				if err != nil {
					t.Fatalf("serial discover %d: %v", i, err)
				}
				reference[i] = discoverFingerprint(d)
			}
			for _, w := range []int{2, 3, 8, 0} {
				setWorkers(w)
				cache.Invalidate()
				got := make([]string, len(load.sets))
				errs := make([]error, len(load.sets))
				var wg sync.WaitGroup
				for i, set := range load.sets {
					wg.Add(1)
					go func() {
						defer wg.Done()
						d, err := load.sys.DiscoverContext(context.Background(), set)
						if err != nil {
							errs[i] = err
							return
						}
						got[i] = discoverFingerprint(d)
					}()
				}
				wg.Wait()
				for i := range load.sets {
					if errs[i] != nil {
						t.Fatalf("workers=%d set=%d: %v", w, i, errs[i])
					}
					if got[i] != reference[i] {
						t.Errorf("workers=%d set=%d diverges from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
							w, i, reference[i], w, got[i])
					}
				}
			}
		})
	}
}

// TestWorkersParamZeroAndNegative pins the Params.Workers edge values:
// 0 (GOMAXPROCS) and negative (treated as the default) must both
// discover, alone and through DiscoverBatch, without a panic or a
// deadlock.
func TestWorkersParamZeroAndNegative(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	examples := []string{"Dan Suciu", "Sam Madden"}
	for _, w := range []int{0, -1} {
		p := sys.Params()
		p.Workers = w
		sys.SetParams(p)
		d, err := sys.DiscoverContext(context.Background(), examples)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(d.Output) == 0 {
			t.Fatalf("workers=%d: empty output", w)
		}
		res, errs := sys.DiscoverBatch(context.Background(), [][]string{examples, examples, examples})
		for i := range res {
			if errs[i] != nil {
				t.Fatalf("workers=%d: batch set %d: %v", w, i, errs[i])
			}
			if len(res[i].Output) == 0 {
				t.Fatalf("workers=%d: batch set %d: empty output", w, i)
			}
		}
	}
}
