// Package index provides the indexing substrate SQuID relies on: hash
// indexes from integer keys to rows for the key/foreign-key point
// lookups of abduction, and from TEXT columns' dictionary codes to rows,
// which with the dictionaries' normal indexes are entity lookup's
// inverted column index (§5 of the paper, CommonColumns); the layered
// posting lists they and the categorical statistics share; and the row
// sets of the abduction-ready database's selectivity computation.
package index

import "sync"

// ColumnKey identifies a (relation, column) pair.
type ColumnKey struct {
	Relation string
	Column   string
}

// RunBounded executes fn(0..n-1) over a worker pool of the given size
// (≤ 1 means inline). It is the minimal fan-out primitive shared by the
// αDB's parallel offline phase and squid.System.DiscoverBatch.
func RunBounded(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
