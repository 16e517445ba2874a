package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// epochPkg is the package that owns the Epoch type; adbEpoch names it.
const (
	adbPkgPath = "squid/internal/adb"
	epochType  = "Epoch"
)

// cloneEscapes are the sanctioned escape hatches: a value that flowed
// through one of these calls is a private copy the caller may mutate.
var cloneEscapes = map[string]bool{
	"CloneForWrite": true,
	"CloneWith":     true,
	"Clone":         true,
}

// epochReachMutators are method names that mutate relation/column/
// index/row-set state reachable from an epoch. Calling one on a value
// whose receiver chain roots in a published *adb.Epoch — without a
// Clone* hop in between — mutates shared immutable state.
var epochReachMutators = map[string]bool{
	"Append":        true,
	"MustAppend":    true,
	"Set":           true,
	"SetAt":         true,
	"Insert":        true,
	"InsertAt":      true,
	"SetPrimaryKey": true,
	"AddForeignKey": true,
	"NoteAppend":    true,
	"Drop":          true,
	"Add":           true,
	"AddAll":        true,
	"AddInts":       true,
	"AndWith":       true,
	// A property's posting lists (index.Postings): shared with every
	// epoch since their last fold.
	"AddRow": true,
}

// analyzerEpochMutate enforces the copy-on-write contract of
// internal/adb: an Epoch is immutable once published. No assignment to
// an Epoch's fields and no mutation of relations, columns, index
// shards, or row sets reachable from one is allowed outside the
// epochBuilder/publish path; CloneForWrite/IndexDelta
// are the sanctioned escape hatches. Epochs freshly constructed in the
// same function (&adb.Epoch{...}) are still private and may be
// initialized.
func analyzerEpochMutate() *Analyzer {
	return &Analyzer{
		Name: "epochmutate",
		Doc:  "no mutation of a published *adb.Epoch or state reachable from one (clone first: CloneForWrite/IndexDelta)",
		Run:  runEpochMutate,
	}
}

func runEpochMutate(prog *Program, pkg *Package, report func(ast.Node, string)) {
	for _, fd := range pkg.funcDecls() {
		// The epochBuilder is the write path: its methods privatize
		// state via the Clone* hatches before mutating, which is the
		// contract itself.
		if pkg.Path == adbPkgPath && recvTypeName(fd) == "epochBuilder" {
			continue
		}
		if fd.Body == nil {
			continue
		}
		checkEpochMutateFunc(pkg, fd, report)
	}
}

func checkEpochMutateFunc(pkg *Package, fd *ast.FuncDecl, report func(ast.Node, string)) {
	// fresh tracks epoch-typed locals assigned from a composite
	// literal in this function: still under construction, not yet
	// published, free to initialize.
	fresh := map[types.Object]bool{}
	// derived tracks locals holding values reached from an epoch
	// without a Clone* hop (r := e.DB.Relation("x")): mutating them
	// mutates the epoch.
	derived := map[types.Object]bool{}

	isEpochExpr := func(e ast.Expr) bool {
		if !isNamedType(pkg.typeOf(e), adbPkgPath, epochType) {
			return false
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && fresh[pkg.objOf(id)] {
			return false
		}
		return true
	}

	// epochRooted reports whether the expression chain reaches back to
	// a published epoch without passing through a Clone* call.
	var epochRooted func(e ast.Expr) bool
	epochRooted = func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if isEpochExpr(e) {
			return true
		}
		switch x := e.(type) {
		case *ast.Ident:
			return derived[pkg.objOf(x)]
		case *ast.SelectorExpr:
			return epochRooted(x.X)
		case *ast.IndexExpr:
			return epochRooted(x.X)
		case *ast.StarExpr:
			return epochRooted(x.X)
		case *ast.CallExpr:
			if sel := methodCall(x); sel != nil {
				if cloneEscapes[sel.Sel.Name] {
					return false // the escape hatch: a private copy
				}
				return epochRooted(sel.X)
			}
		}
		return false
	}

	isFreshComposite := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok {
			e = ast.Unparen(u.X)
		}
		cl, ok := e.(*ast.CompositeLit)
		return ok && isNamedType(pkg.typeOf(cl), adbPkgPath, epochType)
	}

	checkLHS := func(lhs ast.Expr) {
		lhs = ast.Unparen(lhs)
		// e.Entities[k] = v is a mutation of the field's map/slice.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if sel, ok := ast.Unparen(ix.X).(*ast.SelectorExpr); ok && isEpochExpr(sel.X) {
				report(lhs, fmt.Sprintf("mutation of %s reachable from a published *adb.Epoch (epochs are immutable; build the next epoch copy-on-write)", sel.Sel.Name))
				return
			}
		}
		if sel, ok := lhs.(*ast.SelectorExpr); ok && isEpochExpr(sel.X) {
			report(lhs, fmt.Sprintf("assignment to field %s of a published *adb.Epoch (epochs are immutable once published)", sel.Sel.Name))
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			// Record fresh / derived flows first, in the order the
			// values are produced, then check the mutations.
			for i, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pkg.objOf(id)
				if obj == nil || i >= len(st.Rhs) {
					continue
				}
				rhs := st.Rhs[i]
				if len(st.Rhs) != len(st.Lhs) {
					rhs = st.Rhs[0]
				}
				switch {
				case isFreshComposite(rhs):
					fresh[obj] = true
				case epochRooted(rhs):
					derived[obj] = true
				default:
					delete(fresh, obj)
					delete(derived, obj)
				}
			}
			for _, lhs := range st.Lhs {
				checkLHS(lhs)
			}
		case *ast.IncDecStmt:
			checkLHS(st.X)
		case *ast.CallExpr:
			sel := methodCall(st)
			if sel == nil || !epochReachMutators[sel.Sel.Name] {
				return true
			}
			if epochRooted(sel.X) {
				report(st, fmt.Sprintf("%s mutates state reachable from a published *adb.Epoch (clone first: CloneForWrite/Clone)", sel.Sel.Name))
			}
		}
		return true
	})
}
