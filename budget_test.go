package squid

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"squid/internal/datagen"
)

// TestBudgets is the gate on what the read path, the write path and a
// warm boot cost, pinned as counts rather than clocks: each row of the
// table is one quantity measured on one fixture, its ceiling, and why
// the ceiling sits there, so moving a budget edits one line. Every
// fixture is the bench-scale IMDb (benchScale: 2,500 persons, 1,000
// movies, 50 companies). The readings behind the ceilings, all go1.24 on
// linux/amd64:
//
//   - A warm discovery of 30 comedians (one goroutine, 201 output
//     values, 2 filters): 861 mallocs and 82.6 KB at the parent of PR 20
//     (per-example Go maps in context discovery and the inverted lookup,
//     fmt.Sprintf per SQL clause, sort.Strings over the output); 156
//     mallocs and 23.0 KB with the intersections on sorted scratch, the
//     output ordered by dictionary rank and the SQL in one buffer; 153.0
//     and 22.1 KB with the outlier impacts grouped in a Go map under a
//     concatenated key string per filter, 95.0 and 20.45 KB with them in
//     a slice indexed like the filters; 81.0 and 19.89 KB once a
//     discovery runs serially, without a worker pool, a scratch free
//     list or a per-property context slice; 72.02 and 19.63 KB with one
//     ordered dictionary and the derived relations read as views; 71.02
//     and 19.56 KB once each example is normalized once and probed into
//     the dictionaries' normal indexes.
//   - What a cold one — the first after a boot, and the first to touch
//     a property after a publish — allocates beyond a warm one: the row
//     sets it builds, each allocated at the size its statistic gave and
//     once more, exactly, if freezing re-picks its form. 28 mallocs and
//     3.2 KB at the parent of PR 23, 6 and 1.4 KB with the sized
//     constructor. The fixture's sets are small enough that the warm path
//     is nine tenths of a cold reading, so the gate is on the difference.
//   - One publish of the repository benchmark's 64-row batch, the mean
//     over 32 batches: 2.01 MB at the parent of PR 25 (a fact copied the
//     whole posting list of its value, a first write into a chunk copied
//     256 slice headers); 1.68 MB with flat 4-byte lists and per-64-list
//     tail words; 1.79 MB once an insert raises second-hop strengths and
//     keeps the hash index over castinfo.person_id resident; 1.84 MB
//     once every fact foreign key's index is resident from the build, so
//     a batch maintains castinfo.movie_id and castinfo.role_id too, and
//     clones the epoch's inverted index; 1.69 MB once a hash index is a
//     key table over posting lists: an insert under a key copies none of
//     its rows, and the lists fold by the rows inserts added, not by the
//     keys they touched; 1.52 MB once a categorical property keeps no
//     per-row code lists to clone and fold; 1.22 MB once derived
//     properties are their pair lists; 1.14 MB once a pair list keeps
//     its strengths apart from its rows, a byte each, so a bump copies
//     a 256-byte strength chunk and not a 2 KB chunk of pairs; 0.53 MB
//     once a write into the last chunk of a positional vector — a
//     histogram's, a property's per-value table — copies it at its
//     length, not with room for 256 elements.
//   - One cold Build, per base-relation row: 3.59 mallocs and 599 B with
//     a Go map per entity, a sort of decoded strings and a boxed append
//     per derived row; 1.74 mallocs and 545 B with the derived relations
//     tabulated in code space into typed columns; 1.09 once derived
//     properties are their pair lists; 0.39 with one adjacency a fact
//     link, laid out flat, and the inverted index built in code space
//     (a key a distinct value, not a map append a text cell); still
//     0.39 once the dictionaries' normal indexes replaced that index,
//     each code normalized once to key its hash; 0.37 with posting lists
//     laid out as bitmaps where that is smaller; 0.125 with each code
//     normalized into a buffer on the stack instead of a string, though
//     every chunk of a vector laid out by ChunkedOf is now an allocation
//     of its own.
//   - What Load adds to the heap per base-relation row: 374 B before
//     PR 18's flat hash-index bases and 8-byte derived pairs, 254 after,
//     224 with PR 25's flat categorical statistics, 217 with 8-byte
//     inverted-index postings in one array (40 B each before) beside the
//     resident fact foreign-key indexes, 190 with 4-byte derived counts
//     in chunks and key-ordered hash indexes that store offsets only,
//     173 once a categorical property walks its access path for an
//     entity's codes instead of keeping them per row, 104 with derived
//     properties that are their pair lists, 107 once every hash index
//     stores its rows (the offsets-only base in key order deleted),
//     95.9 with derived pairs of a 4-byte row and a 1-byte strength,
//     85.2 once entity lookup reads the dictionaries' normal indexes
//     and a code index a TEXT column (the inverted index and its string
//     key map deleted), 70.2 with dense strength columns, 52.4 with
//     INTEGER cells stored as a base and narrow offsets, 46.1 once a
//     posting list that holds more than one row in 32 of its universe
//     is a bitmap, 45.4 once a loaded dictionary's values are slices of
//     one string.
//   - What Load and the repository benchmark's first 24 insert batches
//     leave on the heap per base-relation row: 52.3 B with the vectors
//     of the numeric orders and the derived properties cut from one
//     array each, so a chunk an insert copied stayed pinned by its
//     neighbors; 51.6 with every chunk its own allocation and the
//     loaded dictionaries' values in one string. At this scale a batch
//     replaces most chunks of a small vector anyway; at 4x the heap
//     after 64 batches reads 8.47 → 7.17 MB.
func TestBudgets(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation and heap sizes under the race detector are not the production ones")
	}
	warm := &measurement{run: func(t *testing.T) map[string]float64 {
		mallocs, kb := discoveryAllocs(t, false)
		return map[string]float64{"mallocs": mallocs, "KB": kb}
	}}
	coldOverWarm := &measurement{run: func(t *testing.T) map[string]float64 {
		mallocs, kb := discoveryAllocs(t, true)
		return map[string]float64{"mallocs": mallocs - warm.read(t, "mallocs"), "KB": kb - warm.read(t, "KB")}
	}}
	build := &measurement{run: buildMallocs}
	insert := &measurement{run: insertBatchAlloc}
	load := &measurement{run: loadHeap}
	inserted := &measurement{run: insertedHeap}

	budgets := []struct {
		name     string
		fixture  *measurement
		quantity string
		limit    float64
		reason   string
	}{
		{"WarmDiscoverMallocs", warm, "mallocs", 75, "5% above the 71.02 of a serial discovery whose examples probe the dictionaries' normal indexes (72.02 with the inverted index, 81.0 with the dictionaries' reverse maps, 95.0 with the worker pool and its scratch free list)"},
		{"WarmDiscoverKB", warm, "KB", 20.5, "5% above the 19.56 KB of a serial discovery whose examples probe the dictionaries' normal indexes (19.63 with the inverted index, 19.89 before the views, 20.45 with the worker pool and its scratch free list)"},
		{"ColdDiscoverMallocs", coldOverWarm, "mallocs", 10, "no grow, sort, dedup, densify or compact copy of a row set (28 at PR 23's parent, 6 after)"},
		{"ColdDiscoverKB", coldOverWarm, "KB", 2, "each row set sized once from its statistic (3.2 KB at PR 23's parent, 1.4 after)"},
		{"BuildMallocsPerRow", build, "mallocs/row", 0.131, "5% above the 0.125 of each dictionary code normalized into a stack buffer to key its hash, with every chunk ChunkedOf lays out its own allocation (0.37 with each normalization that rewrote a value making a string, 0.39 before bitmap posting lists, 1.09 with per-entity via lists and a map append a text cell, 1.74 with the derived relations stored, 3.59 with a map per entity, a string sort and a boxed append per row)"},
		{"InsertBatchMB", insert, "MB", 0.37, "5% above the 0.35 MB of bumps into dense strength columns and chunk tables of 16-byte entries (0.53 MB with every value a pair list and 40-byte entries, bumps that write a strength byte into chunks copied at their length; 1.14 MB with last chunks copied with room for 256, 1.22 with 8-byte pairs, 1.52 with the derived relations stored, 1.69 with per-row code lists, 2.01 before flat 4-byte lists, 1.84 before the key table)"},
		{"InsertedBytesPerRow", inserted, "B/row", 54.2, "5% above the 51.6 B/row that Load and 24 insert batches leave with every chunk of a vector its own allocation, so a chunk an insert replaced is freed, and a loaded dictionary's values in one string (52.3 with the chunks that ChunkedOf laid out cut from one array, which a replaced chunk's neighbors kept whole)"},
		{"LoadBytesPerRow", load, "B/row", 47.6, "5% above the 45.4 B/row of a loaded dictionary's values sliced from one string (46.1 with a string a value; posting lists laid out as a bitmap where that is smaller; 52.4 with every list a run of 4-byte rows and INTEGER cells stored as a base and offsets of the width their column's range takes; 70.2 with 8-byte INTEGER cells, dense strength columns for values a fifth of the entities hold and chunk tables of 16-byte entries; 85.2 with every value a pair list and 40-byte entries, entity lookup over the dictionaries' normal indexes and a code index a TEXT column; 95.9 with the inverted index, 105.6 with 8-byte pairs, 173 with the derived relations stored, 190 with per-row code lists, 217 before chunked derived counts)"},
	}
	for _, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			got := b.fixture.read(t, b.quantity)
			t.Logf("%.2f %s against a budget of %g: %s", got, b.quantity, b.limit, b.reason)
			if got > b.limit {
				t.Errorf("%.2f %s, over the budget of %g (%s)", got, b.quantity, b.limit, b.reason)
			}
		})
	}
}

// A measurement runs one fixture once and reports its quantities by
// name; the rows of the budget table that read it share the run.
type measurement struct {
	run func(t *testing.T) map[string]float64
	got map[string]float64
}

func (m *measurement) read(t *testing.T, quantity string) float64 {
	t.Helper()
	if m.got == nil {
		m.got = m.run(t)
	}
	return m.got[quantity]
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
// comedians allocates on the bench-scale IMDb fixture, averaged over 100: warm, with the row-set memos, the rank tables and
// every lazy index in place, or cold, with the memos emptied before each
// discovery (the emptying allocates nothing).
func discoveryAllocs(t *testing.T, cold bool) (mallocs, kb float64) {
	t.Helper()
	g := datagen.GenerateIMDb(benchScale().IMDb)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
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

// buildMallocs reports the mallocs one cold Build of the fixture makes
// per base-relation row.
func buildMallocs(t *testing.T) map[string]float64 {
	db := datagen.GenerateIMDb(benchScale().IMDb).DB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Build(db, DefaultBuildConfig()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return map[string]float64{"mallocs/row": float64(after.Mallocs-before.Mallocs) / float64(db.TotalRows())}
}

// insertBatchAlloc reports the MB one publish of the repository
// benchmark's 64-row batch allocates, copy-on-write clones included, as
// BenchmarkInsertBatch runs it: the mean over the first 32 batches.
func insertBatchAlloc(t *testing.T) map[string]float64 {
	const batches = 32
	cfg := benchScale().IMDb
	sys, err := Build(datagen.GenerateIMDb(cfg).DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < batches; k++ {
		if err := sys.InsertBatchContext(context.Background(), insertBenchBatch(cfg, k)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return map[string]float64{"MB": float64(after.TotalAlloc-before.TotalAlloc) / batches / (1 << 20)}
}

// loadHeap reports what Load of the fixture's snapshot adds to the heap
// per base-relation row: a structure that quietly re-inflates — a
// per-key slice header, a map where an array would do — shows here long
// before it shows in the benchmark's heap_mb.
func loadHeap(t *testing.T) map[string]float64 {
	var buf bytes.Buffer
	{
		sys, err := Build(datagen.GenerateIMDb(benchScale().IMDb).DB, DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	before := heapAfterGC()
	sys, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	grew := heapAfterGC() - before
	rows := sys.alpha.Snapshot().DB.TotalRows()
	// The snapshot bytes stay live across both readings: freed between
	// them, they would be subtracted from what Load added.
	runtime.KeepAlive(&buf)
	runtime.KeepAlive(sys)
	return map[string]float64{"B/row": float64(grew) / float64(rows)}
}

// insertedHeap reports what Load of the fixture's snapshot and the
// repository benchmark's first 24 insert batches (afterInserts) leave
// on the heap per base-relation row, retired epochs collected: the
// chunks a batch copies, and what the chunks they replaced still pin.
func insertedHeap(t *testing.T) map[string]float64 {
	cfg := benchScale().IMDb
	built, err := Build(datagen.GenerateIMDb(cfg).DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := heapAfterGC()
	sys := afterInserts(t, built, cfg)
	grew := heapAfterGC() - before
	rows := built.alpha.Snapshot().DB.TotalRows()
	runtime.KeepAlive(built)
	runtime.KeepAlive(sys)
	return map[string]float64{"B/row": float64(grew) / float64(rows)}
}

// heapAfterGC returns the live heap after two collections.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
