package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// analyzerUnusedExport flags exported package-level identifiers in
// internal/ packages, the root package and the commands under cmd/ that
// no other package of the module references and no _test.go file
// mentions: dead public surface that widens the
// contract the other analyzers must police. An exported method is
// flagged when no selector anywhere in the module (tests included)
// names it and no interface the module can see declares it — interface
// satisfaction is the one use name resolution cannot show. Struct
// fields stay exempt (encoding makes their use invisible).
func analyzerUnusedExport() *Analyzer {
	return &Analyzer{
		Name: "unusedexport",
		Doc:  "exported identifiers in internal/, the root package and cmd/ must be used by another package or a test — otherwise unexport or remove them",
		Run:  runUnusedExport,
	}
}

func runUnusedExport(prog *Program, pkg *Package, report func(ast.Node, string)) {
	if !strings.Contains(pkg.Path, "/internal/") && pkg.Path != prog.ModulePath && !strings.HasPrefix(pkg.Path, prog.ModulePath+"/cmd/") {
		return
	}
	used := prog.crossPackageUses()
	reachable := reachableFromAPI(pkg, used, prog.TestIdents)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj == nil || !obj.Exported() {
			continue
		}
		if used[obj] || prog.TestIdents[name] || reachable[obj] {
			continue
		}
		// Anchor the report at the defining identifier.
		var at ast.Node
		for id, def := range pkg.Info.Defs {
			if def == obj {
				at = id
				break
			}
		}
		if at == nil {
			continue
		}
		report(at, fmt.Sprintf("exported identifier %s is used by no other package and no test: unexport or remove it", name))
	}

	named := prog.selectorNames()
	ifaceMethods := prog.interfaceMethodNames()
	// A fixture package is not part of prog.Pkgs; its own selectors and
	// interfaces count like any module package's.
	own := map[string]bool{}
	collectSelectorNames(pkg, own)
	collectInterfaceMethods(pkg, own)
	for _, fd := range pkg.funcDecls() {
		name := fd.Name.Name
		if fd.Recv == nil || !fd.Name.IsExported() {
			continue
		}
		if named[name] || ifaceMethods[name] || own[name] || prog.TestIdents[name] {
			continue
		}
		report(fd.Name, fmt.Sprintf("exported method %s.%s is named by no selector in the module and declared by no interface: unexport or remove it", recvTypeName(fd), name))
	}
}

// selectorNames returns every name the module's non-test files select
// (x.Name): method calls, method values, field reads (memoized per
// program). Test files contribute through TestIdents.
func (p *Program) selectorNames() map[string]bool {
	if p.selNames == nil {
		p.selNames = map[string]bool{}
		for _, pkg := range p.Pkgs {
			collectSelectorNames(pkg, p.selNames)
		}
	}
	return p.selNames
}

func collectSelectorNames(pkg *Package, into map[string]bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				into[sel.Sel.Name] = true
			}
			return true
		})
	}
}

// interfaceMethodNames returns the method names of every interface the
// module can see: interface types written in its own files (named or
// anonymous, embedded methods included), the named interfaces of the
// packages it imports directly, and error (memoized per program).
func (p *Program) interfaceMethodNames() map[string]bool {
	if p.ifaceMethods != nil {
		return p.ifaceMethods
	}
	names := map[string]bool{"Error": true}
	for _, pkg := range p.Pkgs {
		collectInterfaceMethods(pkg, names)
		for _, imp := range pkg.Types.Imports() {
			scope := imp.Scope()
			for _, n := range scope.Names() {
				if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
					addInterfaceMethods(tn.Type(), names)
				}
			}
		}
	}
	p.ifaceMethods = names
	return names
}

// collectInterfaceMethods adds the method names of every interface type
// expression in the package's files.
func collectInterfaceMethods(pkg *Package, into map[string]bool) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				addInterfaceMethods(pkg.typeOf(it), into)
			}
			return true
		})
	}
}

func addInterfaceMethods(t types.Type, into map[string]bool) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			into[it.Method(i).Name()] = true
		}
	}
}

// reachableFromAPI returns the package-level objects of pkg whose
// types are structurally reachable from its consumed API surface: a
// result type of a cross-used function, a field type of a cross-used
// struct, and so on, transitively. Such a type is part of the contract
// even when no other package ever names it (p.SelectivityCache()
// returning *SelCache uses SelCache without naming it). An alias is
// reached like a named type, and so is the type it stands for.
func reachableFromAPI(pkg *Package, crossUsed map[types.Object]bool, testIdents map[string]bool) map[types.Object]bool {
	reach := map[types.Object]bool{}
	seen := map[types.Type]bool{}

	var visitType func(t types.Type)
	visitType = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if a, ok := t.(*types.Alias); ok {
			if obj := a.Obj(); obj.Pkg() == pkg.Types {
				reach[obj] = true
			}
			visitType(a.Rhs())
			return
		}
		if n, ok := t.(*types.Named); ok {
			obj := n.Obj()
			if obj != nil && obj.Pkg() == pkg.Types {
				if reach[obj] {
					return
				}
				reach[obj] = true
			}
			for i := 0; i < n.NumMethods(); i++ {
				visitType(n.Method(i).Type())
			}
			if ta := n.TypeArgs(); ta != nil {
				for i := 0; i < ta.Len(); i++ {
					visitType(ta.At(i))
				}
			}
			visitType(n.Underlying())
			return
		}
		switch u := t.(type) {
		case *types.Pointer:
			visitType(u.Elem())
		case *types.Slice:
			visitType(u.Elem())
		case *types.Array:
			visitType(u.Elem())
		case *types.Chan:
			visitType(u.Elem())
		case *types.Map:
			visitType(u.Key())
			visitType(u.Elem())
		case *types.Signature:
			if u.Recv() != nil {
				visitType(u.Recv().Type())
			}
			visitType(u.Params())
			visitType(u.Results())
		case *types.Tuple:
			for i := 0; i < u.Len(); i++ {
				visitType(u.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				visitType(u.Field(i).Type())
			}
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				visitType(u.Method(i).Type())
			}
		}
	}

	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj == nil || !obj.Exported() {
			continue
		}
		if crossUsed[obj] || testIdents[name] {
			visitType(obj.Type())
		}
	}
	return reach
}

// crossPackageUses returns the set of objects referenced from a
// package other than their own (memoized per program).
func (p *Program) crossPackageUses() map[types.Object]bool {
	if p.crossUses != nil {
		return p.crossUses
	}
	used := map[types.Object]bool{}
	for _, pkg := range p.Pkgs {
		for _, obj := range pkg.Info.Uses {
			if obj.Pkg() != nil && pkg.Types != nil && obj.Pkg() != pkg.Types {
				used[obj] = true
			}
		}
	}
	p.crossUses = used
	return used
}
