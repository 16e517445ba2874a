package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The module is loaded once for the whole test binary: every fixture
// typechecks against the same program so imports of real packages
// (squid/internal/adb, ...) resolve from the already-checked module.
var (
	progOnce sync.Once
	progVal  *Program
	progErr  error
)

func loadProg(t *testing.T) *Program {
	t.Helper()
	progOnce.Do(func() {
		progVal, progErr = LoadModule(".")
	})
	if progErr != nil {
		t.Fatalf("LoadModule: %v", progErr)
	}
	return progVal
}

// want is one expectation parsed from a fixture comment: a regular
// expression that must match a diagnostic message reported on the same
// line. Both `// want "..."` and `/* want "..." */` forms are
// recognized (the block form exists so an expectation can share a line
// with a //lint:ignore directive, which runs to end of line).
type want struct {
	re      *regexp.Regexp
	line    int
	matched bool
}

var wantRx = regexp.MustCompile("want\\s+(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// parseWants scans every .go file of dir for want comments and returns
// them keyed by absolute filename.
func parseWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]*want{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(abs, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRx.FindAllStringSubmatch(line, -1) {
				// Unquote interprets both the interpreted ("...") and the
				// raw (`...`) form, so "\\(" in a fixture means the regex \(.
				pat, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want literal %s: %v", path, i+1, m[1], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, pat, err)
				}
				wants[path] = append(wants[path], &want{re: re, line: i + 1})
			}
		}
	}
	return wants
}

// byName resolves analyzer names against the registered suite.
func byName(t *testing.T, names []string) []*Analyzer {
	t.Helper()
	all := Analyzers()
	if names == nil {
		return all
	}
	var out []*Analyzer
	for _, name := range names {
		found := false
		for _, a := range all {
			if a.Name == name {
				out = append(out, a)
				found = true
			}
		}
		if !found {
			t.Fatalf("no analyzer named %q (have %v)", name, AnalyzerNames())
		}
	}
	return out
}

// checkFixture loads testdata/src/<dir> as import path asPath, runs the
// named analyzers (nil = the full suite), and matches diagnostics
// against the fixture's want comments in both directions: every
// diagnostic needs a matching want on its line, every want must be
// consumed by a diagnostic.
func checkFixture(t *testing.T, dir, asPath string, analyzers []string) {
	t.Helper()
	prog := loadProg(t)
	fixDir := filepath.Join("testdata", "src", dir)
	pkg, err := prog.LoadExtra(fixDir, asPath)
	if err != nil {
		t.Fatalf("LoadExtra(%s): %v", fixDir, err)
	}
	wants := parseWants(t, fixDir)
	diags := RunOnPackage(prog, pkg, byName(t, analyzers))

	for _, d := range diags {
		file, err := filepath.Abs(d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, w := range wants[file] {
			if !w.matched && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: want %q matched no diagnostic", file, w.line, w.re)
			}
		}
	}
}

func TestEpochMutateFixture(t *testing.T) {
	checkFixture(t, "epochmutate", "fixtures/epochmutate", []string{"epochmutate"})
}

func TestRowSetAliasFixture(t *testing.T) {
	checkFixture(t, "rowsetalias", "fixtures/rowsetalias", []string{"rowsetalias"})
}

func TestCtxPollFixture(t *testing.T) {
	checkFixture(t, "ctxpoll", "fixtures/ctxpoll", []string{"ctxpoll"})
}

func TestSyncRenameFixture(t *testing.T) {
	checkFixture(t, "syncrename", "fixtures/syncrename", []string{"syncrename"})
}

func TestSpanEndFixture(t *testing.T) {
	checkFixture(t, "spanend", "fixtures/spanend", []string{"spanend"})
}

// The unusedexport fixture must live under a synthetic internal/ path:
// the analyzer only polices internal/ packages.
func TestUnusedExportFixture(t *testing.T) {
	checkFixture(t, "unusedexport", "fixtures/internal/unusedexport", []string{"unusedexport"})
}

// The suppression fixture runs under the FULL suite: well-formed
// //lint:ignore directives must silence their analyzer, malformed ones
// must surface as "suppress" findings.
func TestSuppressFixture(t *testing.T) {
	checkFixture(t, "suppress", "fixtures/suppress", nil)
}

// TestModuleClean is the invariant the CI lint step enforces: the
// shipped tree has zero findings. A reintroduced violation fails here
// (and makes squid-lint exit non-zero) before it ever lands.
func TestModuleClean(t *testing.T) {
	prog := loadProg(t)
	diags := RunAnalyzers(prog, Analyzers(), nil)
	for _, d := range diags {
		t.Errorf("finding on the shipped tree: %s", d)
	}
}

// The suite's stable order is part of the CLI contract (-run parses
// comma-separated names; the README table lists them in this order).
func TestAnalyzerNamesStable(t *testing.T) {
	got := strings.Join(AnalyzerNames(), ",")
	const want = "epochmutate,rowsetalias,ctxpoll,syncrename,unusedexport,spanend"
	if got != want {
		t.Fatalf("AnalyzerNames() = %s, want %s", got, want)
	}
}
