package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one typechecked module package: its syntax, type
// information, and location. Test files (_test.go) are excluded from
// the load — the contracts exempt them, and they may deliberately poke
// internals — but every identifier they mention is collected into
// Program.TestIdents so whole-program analyses (unusedexport) still
// see test-only consumers.
type Package struct {
	// Path is the import path ("squid/internal/adb").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Files holds the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Program is the whole loaded module: every package typechecked
// against the same FileSet and importer, plus the test-identifier set.
type Program struct {
	Fset *token.FileSet
	// ModulePath is the module's import-path prefix (from go.mod).
	ModulePath string
	// RootDir is the module root (the go.mod directory).
	RootDir string
	// Pkgs lists the loaded packages in dependency-then-path order.
	Pkgs []*Package
	// TestIdents holds every identifier name that appears anywhere in
	// a _test.go file of the module (textual, unresolved): the
	// conservative "a test uses this" signal for unusedexport.
	TestIdents map[string]bool

	byPath    map[string]*Package
	loading   map[string]bool
	stdImp    types.Importer
	crossUses map[types.Object]bool
	// selNames and ifaceMethods memoize unusedexport's method analysis.
	selNames     map[string]bool
	ifaceMethods map[string]bool
}

// LoadModule parses and typechecks every package of the module rooted
// at or above dir. Module-local imports are typechecked recursively
// from source; everything else (the stdlib — the module has no
// external dependencies) resolves through go/types' source importer.
func LoadModule(dir string) (*Program, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	prog := &Program{
		Fset:       fset,
		ModulePath: modPath,
		RootDir:    root,
		TestIdents: map[string]bool{},
		byPath:     map[string]*Package{},
		loading:    map[string]bool{},
		stdImp:     importer.ForCompiler(fset, "source", nil),
	}

	var pkgDirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGoFiles(path)
		if err != nil {
			return err
		}
		if hasGo {
			pkgDirs = append(pkgDirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(pkgDirs)

	for _, d := range pkgDirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if _, err := prog.loadLocal(path); err != nil {
			return nil, err
		}
		if err := prog.collectTestIdents(d); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
	}
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// Import implements types.Importer over the whole program: local
// packages load recursively, the rest delegates to the source
// importer.
func (p *Program) Import(path string) (*types.Package, error) {
	if path == p.ModulePath || strings.HasPrefix(path, p.ModulePath+"/") {
		pkg, err := p.loadLocal(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return p.stdImp.Import(path)
}

// loadLocal typechecks one module-local package (memoized).
func (p *Program) loadLocal(path string) (*Package, error) {
	if pkg, ok := p.byPath[path]; ok {
		return pkg, nil
	}
	if p.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	p.loading[path] = true
	defer delete(p.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, p.ModulePath), "/")
	dir := filepath.Join(p.RootDir, filepath.FromSlash(rel))
	pkg, err := p.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	p.byPath[path] = pkg
	p.Pkgs = append(p.Pkgs, pkg)
	return pkg, nil
}

// LoadExtra parses and typechecks one extra directory (a testdata
// fixture package) against the already-loaded program. The package is
// NOT appended to prog.Pkgs: fixtures import real module packages but
// never become part of the module view.
func (p *Program) LoadExtra(dir, asPath string) (*Package, error) {
	return p.loadDir(dir, asPath)
}

func (p *Program) loadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: p,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, p.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: typechecking %s: %v (and %d more)", path, typeErrs[0], len(typeErrs)-1)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// collectTestIdents parses the directory's _test.go files (syntax
// only) and records every identifier they mention.
func (p *Program) collectTestIdents(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				p.TestIdents[id.Name] = true
			}
			return true
		})
	}
	return nil
}
