package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// Runner executes one experiment and prints its paper-style output.
type Runner struct {
	ID          string
	Description string
	Run         func(ctx context.Context, s *Suite, w io.Writer)
}

// Registry lists every experiment, keyed by the DESIGN.md experiment id.
func Registry() []Runner {
	return []Runner{
		{"fig9a", "abduction time vs #examples (IMDb, DBLP)", func(ctx context.Context, s *Suite, w io.Writer) { PrintFig9a(w, s.Fig9a(ctx)) }},
		{"fig9b", "abduction time vs dataset size (IMDb variants)", func(ctx context.Context, s *Suite, w io.Writer) { printFig9b(w, s.Fig9b(ctx)) }},
		{"fig10", "accuracy vs #examples for all benchmarks", func(ctx context.Context, s *Suite, w io.Writer) { printFig10(w, s.Fig10(ctx)) }},
		{"fig11", "intended vs abduced query runtime", func(ctx context.Context, s *Suite, w io.Writer) { printFig11(w, s.Fig11(ctx)) }},
		{"fig12", "effect of entity disambiguation", func(ctx context.Context, s *Suite, w io.Writer) { printFig12(w, s.Fig12(ctx)) }},
		{"fig13", "case studies", func(ctx context.Context, s *Suite, w io.Writer) { printFig13(w, s.Fig13(ctx)) }},
		{"fig14", "Adult QRE: SQuID vs TALOS", func(ctx context.Context, s *Suite, w io.Writer) {
			printQRE(w, "Fig 14: Adult QRE comparison", s.Fig14(ctx))
		}},
		{"fig15a", "IMDb QRE: SQuID vs TALOS", func(ctx context.Context, s *Suite, w io.Writer) {
			printQRE(w, "Fig 15(a): IMDb QRE comparison", s.Fig15a(ctx))
		}},
		{"fig15b", "DBLP QRE: SQuID vs TALOS", func(ctx context.Context, s *Suite, w io.Writer) {
			printQRE(w, "Fig 15(b): DBLP QRE comparison", s.Fig15b(ctx))
		}},
		{"fig16a", "SQuID vs PU-learning accuracy", func(ctx context.Context, s *Suite, w io.Writer) { printFig16a(w, s.Fig16a(ctx)) }},
		{"fig16b", "SQuID vs PU-learning scalability", func(ctx context.Context, s *Suite, w io.Writer) { printFig16b(w, s.Fig16b(ctx)) }},
		{"fig18", "dataset and αDB statistics", func(ctx context.Context, s *Suite, w io.Writer) { printFig18(w, s.Fig18()) }},
		{"fig19", "IMDb benchmark inventory", func(ctx context.Context, s *Suite, w io.Writer) { PrintBenchmarkTable(w, s.Fig19(ctx)) }},
		{"fig20", "DBLP benchmark inventory", func(ctx context.Context, s *Suite, w io.Writer) { PrintBenchmarkTable(w, s.Fig20(ctx)) }},
		{"fig22", "Adult benchmark inventory", func(ctx context.Context, s *Suite, w io.Writer) { PrintBenchmarkTable(w, s.Fig22(ctx)) }},
		{"fig23", "base prior rho sweep", func(ctx context.Context, s *Suite, w io.Writer) { printSweep(w, "Fig 23: rho sweep", s.Fig23(ctx)) }},
		{"fig24", "domain-coverage gamma sweep", func(ctx context.Context, s *Suite, w io.Writer) { printSweep(w, "Fig 24: gamma sweep", s.Fig24(ctx)) }},
		{"fig25", "association threshold tauA sweep", func(ctx context.Context, s *Suite, w io.Writer) { printSweep(w, "Fig 25: tauA sweep", s.Fig25(ctx)) }},
		{"fig26", "skewness threshold tauS sweep", func(ctx context.Context, s *Suite, w io.Writer) { printSweep(w, "Fig 26: tauS sweep", s.Fig26(ctx)) }},
		{"ablations", "design-choice ablation studies", func(ctx context.Context, s *Suite, w io.Writer) { printAblations(w, s.Ablations(ctx)) }},
	}
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns the sorted experiment ids.
func IDs() []string {
	var out []string
	for _, r := range Registry() {
		out = append(out, r.ID)
	}
	sort.Strings(out)
	return out
}

// RunAll executes every experiment in registry order.
func RunAll(ctx context.Context, s *Suite, w io.Writer) {
	for _, r := range Registry() {
		fmt.Fprintf(w, "=== %s — %s ===\n", r.ID, r.Description)
		r.Run(ctx, s, w)
		fmt.Fprintln(w)
	}
}
