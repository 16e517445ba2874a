package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// rowSetMutators are the index.RowSet methods that write the receiver.
var rowSetMutators = map[string]bool{
	"Add":     true,
	"AddAll":  true,
	"AddInts": true,
	"AndWith": true,
}

// analyzerRowSetAlias enforces the shared-row-set contract: a RowSet
// obtained from Filter.RowSet() or an EntityRowSet* property method
// aliases the property's memo storage, shared across discoveries and
// across the epochs the property lives through. It must flow through
// Clone() before any mutating method; mutating the alias corrupts every
// other reader's memoized answer.
func analyzerRowSetAlias() *Analyzer {
	return &Analyzer{
		Name: "rowsetalias",
		Doc:  "a RowSet from Filter.RowSet / EntityRowSet* is shared memo storage — Clone() before AndWith/Add*",
		Run:  runRowSetAlias,
	}
}

// rowSetSource reports whether a call yields a shared (cache-aliasing)
// *index.RowSet: a method named RowSet or EntityRowSet* whose result
// type is *index.RowSet.
func rowSetSource(pkg *Package, call *ast.CallExpr) bool {
	sel := methodCall(call)
	if sel == nil {
		return false
	}
	name := sel.Sel.Name
	if name != "RowSet" && !strings.HasPrefix(name, "EntityRowSet") {
		return false
	}
	return isNamedType(pkg.typeOf(call), "squid/internal/index", "RowSet")
}

func runRowSetAlias(prog *Program, pkg *Package, report func(ast.Node, string)) {
	for _, fd := range pkg.funcDecls() {
		if fd.Body == nil {
			continue
		}
		// shared tracks locals aliasing cache-owned row sets.
		shared := map[types.Object]bool{}

		isSharedExpr := func(e ast.Expr) bool {
			e = ast.Unparen(e)
			if call, ok := e.(*ast.CallExpr); ok {
				return rowSetSource(pkg, call)
			}
			if id, ok := e.(*ast.Ident); ok {
				return shared[pkg.objOf(id)]
			}
			return false
		}

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, lhs := range st.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := pkg.objOf(id)
					if obj == nil {
						continue
					}
					rhs := ast.Unparen(st.Rhs[i])
					switch {
					case isSharedExpr(rhs):
						shared[obj] = true
					default:
						// Any other assignment — including v.Clone()
						// — detaches the local from cache storage.
						delete(shared, obj)
					}
				}
			case *ast.CallExpr:
				sel := methodCall(st)
				if sel == nil || !rowSetMutators[sel.Sel.Name] {
					return true
				}
				if isSharedExpr(sel.X) {
					report(st, fmt.Sprintf("%s mutates a RowSet aliasing shared αDB cache storage — Clone() it first", sel.Sel.Name))
				}
			}
			return true
		})
	}
}
