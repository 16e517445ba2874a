// Command squid is an interactive query-by-example CLI over the bundled
// synthetic datasets: give it example values, get the abduced SQL query
// and its output.
//
// Usage:
//
//	squid -dataset imdb "Eddie Murphy" "Jim Carrey" "Robin Williams"
//	squid -dataset dblp -qre "Dr James Smith" ...
//	squid -dataset adult -show-candidates "James Smith #1" ...
//	squid -dataset imdb -snapshot /tmp/imdb.sqas "Eddie Murphy" ...
//
// Flags select the dataset, the parameter preset, and how much of the
// abduction detail to print. With -snapshot, the abduction-ready
// database is loaded from the given file when it exists (a warm boot,
// O(read)) and built-then-saved there when it does not, so only the
// first run pays the offline phase.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"squid"
	"squid/internal/datagen"
)

func main() {
	var (
		dataset    = flag.String("dataset", "imdb", "dataset: imdb, dblp, or adult")
		qre        = flag.Bool("qre", false, "use the optimistic QRE parameter preset (§7.5)")
		normalize  = flag.Bool("normalize", false, "normalize association strength (Fig 13a tuning)")
		rho        = flag.Float64("rho", 0, "override base filter prior ρ (0 = default)")
		candidates = flag.Bool("show-candidates", false, "print every candidate filter with its include/exclude scores")
		maxOut     = flag.Int("max-output", 20, "output rows to print")
		snapPath   = flag.String("snapshot", "", "αDB snapshot file: load it when present, build and save it otherwise")
	)
	flag.Parse()
	examples := flag.Args()
	if len(examples) == 0 {
		fmt.Fprintln(os.Stderr, "usage: squid [-dataset imdb|dblp|adult] example1 example2 ...")
		os.Exit(2)
	}

	sys := bootSystem(*dataset, *snapPath)

	params := squid.DefaultParams()
	if *qre {
		params = squid.QREParams()
	}
	if *normalize {
		params.NormalizeAssociation = true
	}
	if *rho > 0 {
		params.Rho = *rho
	}
	sys.SetParams(params)

	start := time.Now()
	disc, err := sys.DiscoverContext(context.Background(), examples)
	if err != nil {
		switch {
		case errors.Is(err, squid.ErrNoEntities):
			fmt.Fprintf(os.Stderr, "no entity in the %s dataset matches all %d examples.\n", *dataset, len(examples))
			fmt.Fprintln(os.Stderr, "Check the spelling of each example, or try fewer examples —")
			fmt.Fprintln(os.Stderr, "every example must denote the same kind of thing (all actors, all researchers, ...).")
		case errors.Is(err, squid.ErrNoExamples):
			fmt.Fprintln(os.Stderr, "no examples given; pass at least one example value.")
		default:
			fmt.Fprintln(os.Stderr, "discovery failed:", err)
		}
		os.Exit(1)
	}
	fmt.Printf("query intent discovered in %v (base query: %s.%s)\n\n",
		time.Since(start).Round(time.Microsecond), disc.Entity, disc.Attribute)

	fmt.Println("-- abduced query (αDB form):")
	fmt.Println(disc.SQL)
	fmt.Println()
	fmt.Println("-- equivalent query (original schema):")
	fmt.Println(disc.Original)
	fmt.Println()

	if *candidates {
		fmt.Println("-- candidate filters (Algorithm 1 decisions):")
		for _, d := range disc.Decisions {
			mark := " "
			if d.Included {
				mark = "*"
			}
			fmt.Printf(" %s %-50s psi=%.4f include=%.4g exclude=%.4g\n",
				mark, d.Filter.String(), d.Selectivity, d.Include, d.Exclude)
		}
		fmt.Println()
	}

	fmt.Printf("-- result (%d rows", len(disc.Output))
	if len(disc.Output) > *maxOut {
		fmt.Printf(", first %d shown", *maxOut)
	}
	fmt.Println("):")
	for i, v := range disc.Output {
		if i >= *maxOut {
			break
		}
		fmt.Println("  ", v)
	}
}

// bootSystem produces the abduction-ready system: a warm boot from the
// snapshot file when one exists, otherwise a cold build of the selected
// dataset (saved to the snapshot path when one was given).
func bootSystem(dataset, snapPath string) *squid.System {
	if snapPath != "" {
		if f, err := os.Open(snapPath); err == nil {
			defer f.Close()
			start := time.Now()
			sys, err := squid.Load(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loading snapshot %s failed: %v\n", snapPath, err)
				fmt.Fprintln(os.Stderr, "delete the file to rebuild it from scratch")
				os.Exit(1)
			}
			// The snapshot carries the database it was built from;
			// refuse to serve answers for a different dataset.
			if got := sys.AlphaDB().DB().Name; got != dataset && !strings.HasPrefix(got, dataset+"_") {
				fmt.Fprintf(os.Stderr, "snapshot %s holds dataset %q, not %q\n", snapPath, got, dataset)
				fmt.Fprintln(os.Stderr, "pass the matching -dataset, or delete the file to rebuild it")
				os.Exit(1)
			}
			fmt.Printf("αDB loaded from %s in %v (warm boot)\n\n", snapPath, time.Since(start).Round(time.Millisecond))
			return sys
		}
	}

	var db *squid.Database
	switch dataset {
	case "imdb":
		db = datagen.GenerateIMDb(datagen.DefaultIMDbConfig()).DB
	case "dblp":
		db = datagen.GenerateDBLP(datagen.DefaultDBLPConfig()).DB
	case "adult":
		db = datagen.GenerateAdult(datagen.DefaultAdultConfig()).DB
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", dataset)
		os.Exit(2)
	}

	fmt.Printf("building abduction-ready database for %s ...\n", dataset)
	start := time.Now()
	sys, err := squid.Build(db, squid.DefaultBuildConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "offline phase failed:", err)
		os.Exit(1)
	}
	fmt.Printf("αDB ready in %v\n", time.Since(start).Round(time.Millisecond))

	if snapPath != "" {
		// Write-then-rename so an interrupted save never leaves a
		// truncated snapshot poisoning later warm boots.
		tmp := snapPath + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cannot create snapshot:", err)
			os.Exit(1)
		}
		// Flush to stable storage before the rename makes the file
		// visible at the final path (the squid-lint syncrename rule): a
		// crash right after the rename must not leave a torn snapshot
		// where the next boot expects a valid one.
		err = sys.Save(f)
		if err == nil {
			err = f.Sync()
		}
		if err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err == nil {
			err = os.Rename(tmp, snapPath)
		}
		if err != nil {
			os.Remove(tmp)
			fmt.Fprintln(os.Stderr, "saving snapshot failed:", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot saved to %s (next boot is warm)\n", snapPath)
	}
	fmt.Println()
	return sys
}
