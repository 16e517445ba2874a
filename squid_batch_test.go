package squid

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"squid/internal/datagen"
	"squid/internal/relation"
)

// discoverFingerprint renders a discovery to the byte form the
// determinism test compares: the full Explain block (base query, both
// SQL forms, every Algorithm 1 decision) plus the projected output.
func discoverFingerprint(d *Discovery) string {
	fp := d.Explain()
	for _, v := range d.Output {
		fp += v + "\n"
	}
	return fp
}

// batchWorkload is a system and the example sets the determinism tests
// discover on it.
type batchWorkload struct {
	name string
	sys  *System
	sets [][]string
}

// batchWorkloads builds the two fixtures of the determinism tests: the
// academics database, and a generated IMDb with enough properties to
// make every discovery do real work.
func batchWorkloads(t *testing.T) []batchWorkload {
	t.Helper()
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
	return []batchWorkload{
		{"academics", acad, [][]string{
			{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"},
			{"Thomas Cormen", "James Kurose"},
			{"Dan Suciu", "Jiawei Han"},
			{"Thomas Cormen", "Jiawei Han"},
		}},
		{"imdb", imdb, [][]string{
			comedians,
			{names.Get(0).Str(), names.Get(1).Str(), names.Get(2).Str()},
			tiedCastPair(t, g.DB, imdb),
		}},
	}
}

// tiedCastPair returns the names of the first two persons, by id, with
// names no other person has, in as many cast rows as each other (at
// least eight) but not for the same movies. A
// derived property's walk reads as many rows for either, so neither is
// picked over the other for it by cost: which one is the seed and which
// one probes follows the order they were given in, and only the
// threshold's being a minimum over both keeps the answer from following
// it too.
func tiedCastPair(t *testing.T, db *relation.Database, sys *System) []string {
	t.Helper()
	ci := db.Relation("castinfo")
	movies := map[int64][]int64{}
	for i := 0; i < ci.NumRows(); i++ {
		id := ci.Column("person_id").Int64(i)
		movies[id] = append(movies[id], ci.Column("movie_id").Int64(i))
	}
	person := sys.AlphaDB().Entity("person")
	names := db.Relation("person").Column("name")
	holders := map[string]int{}
	for row := 0; row < names.Len(); row++ {
		holders[names.Get(row).Str()]++
	}
	nameOf := func(id int64) string {
		row, ok := person.RowByID(id)
		if !ok {
			t.Fatalf("person id %d missing from αDB", id)
		}
		return names.Get(row).Str()
	}
	byCount := map[int]int64{}
	for _, id := range slices.Sorted(maps.Keys(movies)) {
		n := len(movies[id])
		slices.Sort(movies[id])
		first, tied := byCount[n]
		if n < 8 || holders[nameOf(id)] > 1 || tied && slices.Equal(movies[first], movies[id]) {
			continue
		}
		if !tied {
			byCount[n] = id
			continue
		}
		return []string{nameOf(first), nameOf(id)}
	}
	t.Fatal("no two persons of unique names are in as many cast rows as each other")
	return nil
}

// TestDiscoverBatchMatchesSerial pins the one fan-out's correctness
// contract: Params.Workers changes how many example sets DiscoverBatch
// runs at once, never an answer. At every worker count — 0 and -1 mean
// GOMAXPROCS — each set's Explain and Output are byte-identical to a
// lone DiscoverContext, on the academics fixture and on a generated
// IMDb with enough properties to make every discovery do real work.
// The selectivity cache is emptied before every run, so each does the
// full abduction rather than reading memos another run left. Under
// -race this is the determinism check of the batch fan-out.
func TestDiscoverBatchMatchesSerial(t *testing.T) {
	for _, load := range batchWorkloads(t) {
		t.Run(load.name, func(t *testing.T) {
			cache := load.sys.AlphaDB().SelectivityCache()
			reference := make([]string, len(load.sets))
			for i, set := range load.sets {
				cache.Invalidate()
				d, err := load.sys.DiscoverContext(context.Background(), set)
				if err != nil {
					t.Fatalf("lone discover %d: %v", i, err)
				}
				reference[i] = discoverFingerprint(d)
			}
			for _, w := range []int{1, 2, 8, 0, -1} {
				p := load.sys.Params()
				p.Workers = w
				load.sys.SetParams(p)
				cache.Invalidate()
				batch, errs := load.sys.DiscoverBatch(context.Background(), load.sets)
				if len(batch) != len(load.sets) || len(errs) != len(load.sets) {
					t.Fatalf("workers=%d: batch returned %d results and %d errors want %d", w, len(batch), len(errs), len(load.sets))
				}
				for i := range load.sets {
					if batch[i] == nil || errs[i] != nil {
						t.Fatalf("workers=%d: batch result %d is nil (error %v)", w, i, errs[i])
					}
					if got := discoverFingerprint(batch[i]); got != reference[i] {
						t.Errorf("workers=%d set=%d diverges from a lone discovery:\n--- lone ---\n%s\n--- batch ---\n%s", w, i, reference[i], got)
					}
				}
			}
		})
	}
}

// TestExampleOrderByteIdentical pins a metamorphic relation of the
// paper's model: the examples are a set, so no permutation of them may
// change a discovery's Explain or Output by a byte. Every set of the
// determinism fixtures is discovered in all its orders up to four
// examples, and in five seeded shuffles past that, each against the
// order as written, with the selectivity cache emptied before every
// discovery. Every set runs with NormalizeAssociation off and on: a
// normalized threshold is a minimum over the examples' fractions, which
// an order may not change either.
func TestExampleOrderByteIdentical(t *testing.T) {
	for _, load := range batchWorkloads(t) {
		t.Run(load.name, func(t *testing.T) {
			cache := load.sys.AlphaDB().SelectivityCache()
			discover := func(set []string) string {
				cache.Invalidate()
				d, err := load.sys.DiscoverContext(context.Background(), set)
				if err != nil {
					t.Fatalf("discover %q: %v", set, err)
				}
				return discoverFingerprint(d)
			}
			for _, normalize := range []bool{false, true} {
				p := load.sys.Params()
				p.NormalizeAssociation = normalize
				load.sys.SetParams(p)
				rng := rand.New(rand.NewSource(1))
				for i, set := range load.sets {
					want := discover(set)
					var orders [][]string
					if len(set) <= 4 {
						orders = permutations(set)
					} else {
						for range 5 {
							order := slices.Clone(set)
							rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
							orders = append(orders, order)
						}
					}
					for _, order := range orders {
						if got := discover(order); got != want {
							t.Errorf("normalize=%v: set %d in order %q diverges from %q:\n--- as written ---\n%s\n--- permuted ---\n%s", normalize, i, order, set, want, got)
						}
					}
				}
			}
		})
	}
}

// permutations returns every ordering of xs.
func permutations(xs []string) [][]string {
	if len(xs) <= 1 {
		return [][]string{slices.Clone(xs)}
	}
	var out [][]string
	for i := range xs {
		rest := append(slices.Clone(xs[:i]), xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{xs[i]}, p...))
		}
	}
	return out
}

func TestDiscoverBatchPartialFailure(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]string{
		{"Dan Suciu", "Sam Madden"},
		{"No Such Person", "Equally Missing"},
		{},
	}
	results, errs := sys.DiscoverBatch(context.Background(), sets)
	if errs[0] != nil {
		t.Errorf("healthy set failed: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrNoEntities) {
		t.Errorf("set 1's error does not match ErrNoEntities: %v", errs[1])
	}
	if !errors.Is(errs[2], ErrNoExamples) {
		t.Errorf("set 2's error does not match ErrNoExamples: %v", errs[2])
	}
	if results[0] == nil || results[0].Entity != "academics" {
		t.Error("healthy set did not produce a discovery")
	}
	if results[1] != nil || results[2] != nil {
		t.Error("failed sets should yield nil discoveries")
	}
}

func TestDiscoverBatchEmptyAndCancel(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res, errs := sys.DiscoverBatch(context.Background(), nil); len(errs) != 0 || len(res) != 0 {
		t.Errorf("empty batch: res=%v errs=%v", res, errs)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := make([][]string, 64)
	for i := range sets {
		sets[i] = []string{"Dan Suciu", "Sam Madden"}
	}
	res, errs := sys.DiscoverBatch(ctx, sets)
	for i := range sets {
		if res[i] != nil || errs[i] != context.Canceled {
			t.Fatalf("set %d of a canceled batch returned %v, %v", i, res[i], errs[i])
		}
	}
}

// TestDiscoverBatchCancellationSemantics pins the documented contract
// under cancellation: every set either completed (non-nil result, no
// error) or was canceled (nil result, its error ctx's bare error). The
// example sets are all valid, so cancellation is the only failure mode.
func TestDiscoverBatchCancellationSemantics(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Params()
	p.Workers = 2
	sys.SetParams(p)
	check := func(t *testing.T, ctx context.Context, cancelMidFlight func()) {
		sets := make([][]string, 48)
		for i := range sets {
			sets[i] = []string{"Dan Suciu", "Sam Madden"}
		}
		if cancelMidFlight != nil {
			go cancelMidFlight()
		}
		res, errs := sys.DiscoverBatch(ctx, sets)
		if len(res) != len(sets) || len(errs) != len(sets) {
			t.Fatalf("got %d results and %d errors want %d", len(res), len(errs), len(sets))
		}
		for i, d := range res {
			canceled := errs[i] == context.Canceled
			if errs[i] != nil && !canceled {
				t.Errorf("set %d: error %v is not ctx's bare error", i, errs[i])
			}
			if d == nil && !canceled {
				t.Errorf("set %d: nil result but not reported as canceled", i)
			}
			if d != nil && canceled {
				t.Errorf("set %d: completed but reported as canceled", i)
			}
		}
	}
	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		check(t, ctx, nil)
	})
	t.Run("mid-flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		check(t, ctx, func() { cancel() })
	})
}

// TestFilterStatsPinnedAcrossInsert pins the epoch contract of returned
// discoveries: a Filter held from a prior discovery stays pinned to the
// epoch it ran against — introspecting it after an insert keeps
// answering from that epoch's statistics (snapshot isolation), while a
// fresh discovery's filter sees the post-insert state.
func TestFilterStatsPinnedAcrossInsert(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	examples := []string{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"}
	interestFilter := func(d *Discovery) *Filter {
		for _, dec := range d.Decisions {
			if dec.Filter.Value() == "data management" {
				return dec.Filter
			}
		}
		return nil
	}
	disc, err := sys.DiscoverContext(context.Background(), examples)
	if err != nil {
		t.Fatal(err)
	}
	f := interestFilter(disc)
	if f == nil {
		t.Fatal("interest filter not among candidates")
	}
	before := len(f.RowSet().ToSorted())
	psiBefore := f.Selectivity()

	// Thomas Cormen (id 100, row 0) picks up the interest.
	if err := sys.InsertBatchContext(context.Background(), []InsertOp{{Rel: "research", Vals: []Value{IntVal(100), StringVal("data management")}}}); err != nil {
		t.Fatal(err)
	}
	if got := f.RowSet().ToSorted(); len(got) != before {
		t.Errorf("pinned filter's RowSet moved to %d rows, want the epoch's %d", len(got), before)
	}
	if f.Selectivity() != psiBefore {
		t.Errorf("pinned filter's selectivity moved to %v from %v", f.Selectivity(), psiBefore)
	}

	// A fresh discovery pins the post-insert epoch and sees the new row.
	disc2, err := sys.DiscoverContext(context.Background(), examples)
	if err != nil {
		t.Fatal(err)
	}
	f2 := interestFilter(disc2)
	if f2 == nil {
		t.Fatal("interest filter missing from fresh discovery")
	}
	if got := f2.RowSet().ToSorted(); len(got) != before+1 {
		t.Errorf("fresh filter's RowSet = %d rows want %d", len(got), before+1)
	}
	if f2.Selectivity() <= psiBefore {
		t.Errorf("fresh filter's selectivity %v did not grow from %v", f2.Selectivity(), psiBefore)
	}
}

// TestDiscoverBatchHammer fans many concurrent batches over one shared
// System; under -race it proves the read path (inverted index, property
// statistics, selectivity cache, lazy index pool, engine executor) is
// concurrency-safe.
func TestDiscoverBatchHammer(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Params()
	p.Workers = 4
	sys.SetParams(p)
	sets := [][]string{
		{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"},
		{"Thomas Cormen", "James Kurose"},
		{"Dan Suciu", "Joseph Hellerstein"},
		{"Jiawei Han", "Dan Suciu"},
	}
	want, err := sys.DiscoverContext(context.Background(), sets[0])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 10; iter++ {
				res, errs := sys.DiscoverBatch(context.Background(), sets)
				for i, err := range errs {
					if err != nil {
						t.Errorf("batch set %d failed: %v", i, err)
						return
					}
				}
				if res[0] == nil || res[0].SQL != want.SQL {
					t.Error("concurrent batch diverged from serial result")
					return
				}
				// Exercise the shared engine executor concurrently too.
				if _, err := sys.ExecuteContext(context.Background(), res[0].Plan()); err != nil {
					t.Errorf("execute failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
