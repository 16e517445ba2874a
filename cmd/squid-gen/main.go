// Command squid-gen generates the schema-aware synthetic datasets of
// the million-row scale track and emits them as snapshot fixtures the
// existing loaders ingest (squid.Load / squid -snapshot /
// squid-server -snapshot).
//
// Usage:
//
//	squid-gen -scale gen1m -out gen1m.sqas
//	squid-gen -scale gen100k -seed 7 -out smoke.sqas
//	squid-gen -customers 25000 -products 8000 -facts 300000 -out custom.sqas
//
// The generator is deterministic: the same scale and seed always
// produce byte-identical databases (and therefore identical discovery
// output) across runs and machines. The fixture is written atomically
// (temp file, fsync, rename) — an interrupted run never leaves a
// truncated snapshot behind. After writing it, squid-gen prints the
// planted example sets, one per line, ready to paste after
// `squid -dataset gen -snapshot <fixture>` or into a discover request
// to `squid-server -dataset gen -snapshot <fixture>`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"squid"
	"squid/internal/buildinfo"
	"squid/internal/datagen"
)

func main() {
	var (
		scale     = flag.String("scale", "gen100k", "preset scale: gen100k or gen1m")
		seed      = flag.Int64("seed", 0, "override the preset's deterministic seed (0 = keep)")
		out       = flag.String("out", "", "output fixture path (.sqas); required")
		customers = flag.Int("customers", 0, "override customer entity cardinality (0 = preset)")
		products  = flag.Int("products", 0, "override product entity cardinality (0 = preset)")
		facts     = flag.Int("facts", 0, "override purchase fact rows (0 = preset)")
	)
	flag.Parse()
	fmt.Fprintln(os.Stderr, "squid-gen:", buildinfo.Get().String())
	if err := run(*scale, *seed, *out, *customers, *products, *facts); err != nil {
		fmt.Fprintln(os.Stderr, "squid-gen:", err)
		os.Exit(1)
	}
}

func run(scale string, seed int64, out string, customers, products, facts int) error {
	if out == "" {
		return fmt.Errorf("missing -out path")
	}
	cfg, ok := datagen.GenScaleConfig(scale)
	if !ok {
		return fmt.Errorf("unknown scale %q (want gen100k or gen1m)", scale)
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if customers > 0 {
		cfg.NumCustomers = customers
	}
	if products > 0 {
		cfg.NumProducts = products
	}
	if facts > 0 {
		cfg.NumFacts = facts
	}

	start := time.Now()
	g := datagen.GenerateGen(cfg)
	genWall := time.Since(start)
	rows := g.DB.TotalRows()

	start = time.Now()
	sys, err := squid.Build(g.DB, squid.DefaultBuildConfig())
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	buildWall := time.Since(start)

	// Atomic write: the fixture either fully exists or not at all.
	tmp, err := os.CreateTemp(filepath.Dir(out), ".squid-gen-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	start = time.Now()
	if err := sys.Save(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), out); err != nil {
		return err
	}
	saveWall := time.Since(start)
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}

	fmt.Printf("%s seed=%d: %d rows (%d customers, %d products, %d+ facts)\n",
		scale, cfg.Seed, rows, cfg.NumCustomers, cfg.NumProducts, cfg.NumFacts)
	fmt.Printf("  generate %v, build %v, save %v\n",
		genWall.Round(time.Millisecond), buildWall.Round(time.Millisecond), saveWall.Round(time.Millisecond))
	fmt.Printf("  fixture %s (%d bytes)\n", out, fi.Size())
	fmt.Println("example sets (each a prefix of one planted loyalist group):")
	for _, set := range datagen.GenExampleSets(cfg) {
		for _, name := range set {
			fmt.Printf(" %q", name)
		}
		fmt.Println()
	}
	return nil
}
