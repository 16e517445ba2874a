package squid

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"squid/internal/abduction"
	"squid/internal/datagen"
	"squid/internal/disambig"
)

// TestPinnedEpochOutputStableWhileInterning pins the read half of the
// order-preserving dictionary's contract: discoveries run against one
// retired epoch keep producing the same Output bytes while a writer
// interns new names into the very dictionary they are ordered by — past
// several rebuilds of its rank table — and a discovery over the current
// epoch sees the new names in sort.Strings order. Run under -race.
func TestPinnedEpochOutputStableWhileInterning(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Two researchers who share no property: the abduced query selects
	// no filter, so its output is every academic of the epoch.
	examples := []string{"Thomas Cormen", "James Kurose"}
	pinned := sys.AlphaDB().Snapshot()
	outputAt := func() ([]string, error) {
		res, err := abduction.DiscoverCtx(ctx, pinned, examples, sys.Params(), disambig.Resolve)
		if err != nil {
			return nil, err
		}
		return res[0].OutputValues(), nil
	}
	want, err := outputAt()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 6 || !sort.StringsAreSorted(want) {
		t.Fatalf("pinned output %q, want the six academics in order", want)
	}

	const inserts = 400 // the six-name dictionary folds many times over
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			// Names that sort before, between and after the original six.
			name := fmt.Sprintf("%c Inserted %d", 'A'+rune(i*7%26), i)
			if err := sys.InsertEntity("academics", IntVal(int64(1000+i)), StringVal(name)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				got, err := outputAt()
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want) {
					t.Errorf("pinned epoch answered %q, then %q", want, got)
					return
				}
				d, err := sys.DiscoverContext(ctx, examples)
				if err != nil {
					t.Error(err)
					return
				}
				if len(d.Output) < len(want) || !sort.StringsAreSorted(d.Output) {
					t.Errorf("current epoch's output is out of order or short: %q", d.Output)
					return
				}
			}
		}()
	}
	wg.Wait()
	d, err := sys.DiscoverContext(ctx, examples)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Output) != len(want)+inserts || !sort.StringsAreSorted(d.Output) {
		t.Errorf("after the inserts: %d values (sorted %v), want %d sorted", len(d.Output), sort.StringsAreSorted(d.Output), len(want)+inserts)
	}
}

// TestResidentBytesCountRankTables keeps the memory attribution honest
// about the one structure the read path builds lazily: the first
// discovery that orders an output builds the rank table of the output
// column's dictionary (a rank and an order entry, 8 bytes, per value),
// and ResidentBytes.Columns — squid_resident_bytes{structure="columns"}
// — grows by exactly that.
func TestResidentBytesCountRankTables(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := sys.ResidentBytes()
	d, err := sys.Discover([]string{"Thomas Cormen", "James Kurose"})
	if err != nil {
		t.Fatal(err)
	}
	names := sys.ExecutableDB().Relation("academics").Column("name").Dict().Len()
	if len(d.Output) != names {
		t.Fatalf("output of %d values over a dictionary of %d: the fixture should output every name", len(d.Output), names)
	}
	after := sys.ResidentBytes()
	if got, want := after.Columns-before.Columns, int64(8*names); got != want {
		t.Errorf("Columns grew by %d bytes over the first ordered output, want the rank table's %d", got, want)
	}
	if after.DerivedColumns != before.DerivedColumns {
		t.Errorf("DerivedColumns moved from %d to %d with no derived value ordered", before.DerivedColumns, after.DerivedColumns)
	}
}

// uniqueComedians returns the names of n of the generated comedians
// whose name no other person has, so a discovery over them resolves
// without disambiguation.
func uniqueComedians(tb testing.TB, g *datagen.IMDb, n int) []string {
	tb.Helper()
	person := g.DB.Relation("person")
	count := map[string]int{}
	for row := 0; row < person.NumRows(); row++ {
		count[person.Get(row, "name").Str()]++
	}
	var names []string
	for _, id := range g.Comedians {
		if name := person.Get(int(id), "name").Str(); count[name] == 1 && len(names) < n {
			names = append(names, name)
		}
	}
	if len(names) < n {
		tb.Fatalf("fixture has %d comedians of unique name, want %d", len(names), n)
	}
	return names
}

// discoveryAllocs returns the mallocs and KB one discovery of 30
// comedians allocates on the bench-scale IMDb fixture (Params.Workers 1,
// 201 output values, 2 filters), averaged over 100: warm, with the
// row-set memos, the rank tables and every lazy index in place, or cold,
// with the memos emptied before each discovery (the emptying allocates
// nothing).
func discoveryAllocs(t *testing.T, cold bool) (mallocs, kb float64) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	g := datagen.GenerateIMDb(benchScale().IMDb)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Params()
	p.Workers = 1
	sys.SetParams(p)
	examples := uniqueComedians(t, g, 30)
	ctx := context.Background()
	cache := sys.AlphaDB().SelectivityCache()
	const runs = 100
	var before, after runtime.MemStats
	for i := -3; i < runs; i++ {
		if i == 0 {
			runtime.ReadMemStats(&before)
		}
		if cold {
			cache.Invalidate()
		}
		if _, err := sys.DiscoverContext(ctx, examples); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
}

// TestDiscoverAllocBudget is the gate on the read path's garbage: one
// warm discovery stays under a committed budget, so a map per example or
// a string per clause cannot creep back unnoticed.
//
// Readings (go1.24, linux/amd64): 861 mallocs and 82.6 KB at the parent
// of PR 20 (per-example Go maps in context discovery and the inverted
// lookup, fmt.Sprintf per SQL clause, sort.Strings over the output);
// 156 mallocs and 23.0 KB with the intersections on sorted scratch, the
// output ordered by dictionary rank and the SQL in one buffer. The
// budget, 200 mallocs and 30 KB, is under 60% of the parent's reading
// on both counts (516 and 49.5 KB).
func TestDiscoverAllocBudget(t *testing.T) {
	const budgetMallocs, budgetKB = 200, 30.0
	mallocs, kb := discoveryAllocs(t, false)
	t.Logf("one warm discovery: %.0f mallocs, %.1f KB", mallocs, kb)
	if mallocs > budgetMallocs || kb > budgetKB {
		t.Errorf("one warm discovery allocates %.0f times and %.1f KB, over the budget of %d and %.0f KB", mallocs, kb, budgetMallocs, budgetKB)
	}
}

// TestColdDiscoverAllocBudget is the gate on what a cold discovery — the
// first after a boot, and the first to touch a property after a publish
// — allocates beyond a warm one: the row sets it builds, each allocated
// at the size its statistic gave before the first row was read and once
// more, exactly, if freezing re-picks its form; never the grow, sort,
// dedup, densify, compact chain of copies.
//
// Readings (go1.24, linux/amd64), cold less warm on this fixture's two
// filters: 28 mallocs and 3.2 KB at the parent of PR 23 (183 and 26.2 KB
// cold), 6 mallocs and 1.4 KB with the sized constructor (161 and 24.4
// KB). The budget is 10 mallocs and 2 KB. (At the benchmark's scale,
// where the sets are 16x wider, a cold discovery went from 177 KB to 26
// KB against 20.5 KB warm; this fixture's sets are small enough that the
// warm path is nine tenths of both readings, so the gate is on the
// difference.)
func TestColdDiscoverAllocBudget(t *testing.T) {
	const budgetMallocs, budgetKB = 10, 2.0
	warmMallocs, warmKB := discoveryAllocs(t, false)
	coldMallocs, coldKB := discoveryAllocs(t, true)
	t.Logf("one cold discovery: %.0f mallocs, %.1f KB; warm: %.0f mallocs, %.1f KB", coldMallocs, coldKB, warmMallocs, warmKB)
	if mallocs, kb := coldMallocs-warmMallocs, coldKB-warmKB; mallocs > budgetMallocs || kb > budgetKB {
		t.Errorf("building its row sets costs a cold discovery %.0f mallocs and %.1f KB, over the budget of %d and %.0f KB", mallocs, kb, budgetMallocs, budgetKB)
	}
}
