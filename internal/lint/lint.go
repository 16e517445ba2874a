// Package lint is squid's project-invariant analyzer suite: a
// stdlib-only static-analysis framework (go/parser, go/ast, go/types
// with the source importer — the module has no external dependencies
// and must stay that way) plus the analyzers that machine-check the
// contracts the rest of the codebase states in prose.
//
// The contracts it enforces are the ones correctness actually rests
// on:
//
//   - epochs are immutable once published (epochmutate),
//   - cached RowSets must be Clone()d before mutation (rowsetalias),
//   - context parameters must be threaded, and ambient contexts are
//     forbidden outside main packages and tests (ctxpoll),
//   - a written file must be Sync()ed before the rename that makes it
//     visible (syncrename),
//   - a span begun with Root/Child is End()ed or handed off (spanend),
//
// plus one hygiene pass: exported identifiers in internal/ packages
// nothing uses (unusedexport). Copies of lock-bearing values, atomic
// ones included, are go vet's copylocks check.
//
// Intentional exceptions are declared in the diff, never silently:
//
//	//lint:ignore <analyzer> <reason>
//
// on (or immediately above) the offending line suppresses that
// analyzer there. A suppression without a reason is itself a
// diagnostic — zero bare suppressions is part of the contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, anchored to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical file:line:col form the CLI prints and
// the golden tests match.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one invariant check. Run is invoked once per analyzed
// package with the whole loaded program for cross-package questions
// (unusedexport); it reports findings through report, which anchors
// them to the node's position.
type Analyzer struct {
	Name string
	// Doc is the one-line contract statement shown by squid-lint -list
	// and quoted in the README's analyzer table.
	Doc string
	Run func(prog *Program, pkg *Package, report func(ast.Node, string))
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerEpochMutate(),
		analyzerRowSetAlias(),
		analyzerCtxPoll(),
		analyzerSyncRename(),
		analyzerUnusedExport(),
		analyzerSpanEnd(),
	}
}

// AnalyzerNames returns the suite's analyzer names in stable order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	file      string
	line      int
	analyzers map[string]bool
	reason    string
	pos       token.Position
}

// parseSuppressions extracts every //lint:ignore directive of a file.
// A directive covers diagnostics on its own line (trailing comment) and
// on the line immediately below it (leading comment).
func parseSuppressions(fset *token.FileSet, f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "lint:ignore") {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:ignore"))
			pos := fset.Position(c.Pos())
			s := suppression{
				file:      pos.Filename,
				line:      pos.Line,
				analyzers: map[string]bool{},
				pos:       pos,
			}
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						s.analyzers[name] = true
					}
				}
				s.reason = strings.TrimSpace(strings.TrimPrefix(rest, fields[0]))
			}
			out = append(out, s)
		}
	}
	return out
}

// RunAnalyzers runs the given analyzers over every package of prog
// selected by keep (nil keeps all), applies //lint:ignore
// suppressions, and returns the surviving diagnostics sorted by
// position. Bare suppressions (no analyzer or no reason) surface as
// diagnostics of the pseudo-analyzer "suppress" — intentional
// exceptions must say why.
func RunAnalyzers(prog *Program, analyzers []*Analyzer, keep func(*Package) bool) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if keep != nil && !keep(pkg) {
			continue
		}
		diags = append(diags, runOnPackage(prog, pkg, analyzers)...)
	}
	sortDiagnostics(diags)
	return diags
}

// RunOnPackage runs the analyzers over one package (the fixture-test
// entry point), applying that package's suppressions.
func RunOnPackage(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags := runOnPackage(prog, pkg, analyzers)
	sortDiagnostics(diags)
	return diags
}

func runOnPackage(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var sups []suppression
	for _, f := range pkg.Files {
		sups = append(sups, parseSuppressions(prog.Fset, f)...)
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	var diags []Diagnostic
	for _, a := range analyzers {
		report := func(n ast.Node, msg string) {
			diags = append(diags, Diagnostic{
				Pos:      prog.Fset.Position(n.Pos()),
				Analyzer: a.Name,
				Message:  msg,
			})
		}
		a.Run(prog, pkg, report)
	}

	// Apply suppressions: a directive covers its own line and the next.
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, s := range sups {
			if s.file == d.Pos.Filename && s.analyzers[d.Analyzer] && s.reason != "" &&
				(s.line == d.Pos.Line || s.line == d.Pos.Line-1) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept

	// Malformed directives are findings themselves: no analyzer name,
	// an unknown analyzer, or a missing reason.
	for _, s := range sups {
		switch {
		case len(s.analyzers) == 0:
			diags = append(diags, Diagnostic{Pos: s.pos, Analyzer: "suppress",
				Message: "bare //lint:ignore: name the analyzer and the reason"})
		case s.reason == "":
			diags = append(diags, Diagnostic{Pos: s.pos, Analyzer: "suppress",
				Message: "suppression without a reason: say why the exception is intentional"})
		default:
			for name := range s.analyzers {
				if !known[name] {
					diags = append(diags, Diagnostic{Pos: s.pos, Analyzer: "suppress",
						Message: fmt.Sprintf("suppression names unknown analyzer %q", name)})
				}
			}
		}
	}
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
