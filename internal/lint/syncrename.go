package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// analyzerSyncRename enforces the durability rule established by the
// snapshot and WAL work (PR 4/7): a rename that makes a written file
// visible at its final path must be dominated by a Sync() on that
// file. Without the fsync, a crash after the rename can leave a
// truncated file at the final path — an acknowledged snapshot or log
// segment that does not survive power loss.
//
// The check is intraprocedural: a function that creates or opens a
// writable file (os.Create / os.CreateTemp / os.OpenFile / an FS
// Create) and later renames (os.Rename or an FS Rename) must have a
// Sync call between the two. Functions that only rename (pure moves,
// FS forwarders) are not flagged — the write happened elsewhere, and
// so must the sync.
func analyzerSyncRename() *Analyzer {
	return &Analyzer{
		Name: "syncrename",
		Doc:  "a written file must be Sync()ed before the os.Rename that makes it visible (crash-safe write-then-rename)",
		Run:  runSyncRename,
	}
}

func runSyncRename(prog *Program, pkg *Package, report func(ast.Node, string)) {
	for _, fd := range pkg.funcDecls() {
		if fd.Body == nil {
			continue
		}
		var creates, syncs []token.Pos
		type renameCall struct {
			call *ast.CallExpr
			pos  token.Pos
		}
		var renames []renameCall

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case pkg.calleePkgFunc(call, "os", "Create") || pkg.calleePkgFunc(call, "os", "CreateTemp") || pkg.calleePkgFunc(call, "os", "OpenFile"):
				creates = append(creates, call.Pos())
			case pkg.calleePkgFunc(call, "os", "Rename"):
				renames = append(renames, renameCall{call, call.Pos()})
			default:
				sel := methodCall(call)
				if sel == nil {
					return true
				}
				name := sel.Sel.Name
				switch {
				case name == "Sync" || strings.HasPrefix(name, "sync") || strings.HasSuffix(name, "Sync"):
					syncs = append(syncs, call.Pos())
				case name == "Create" || name == "OpenFile":
					// FS-abstraction variants (iofault.FS).
					creates = append(creates, call.Pos())
				case name == "Rename":
					renames = append(renames, renameCall{call, call.Pos()})
				}
			}
			return true
		})

		for _, r := range renames {
			wrote := false
			for _, c := range creates {
				if c < r.pos {
					wrote = true
					break
				}
			}
			if !wrote {
				continue
			}
			synced := false
			for _, s := range syncs {
				if s < r.pos {
					synced = true
					break
				}
			}
			if !synced {
				report(r.call, "rename of a file written in this function without a preceding Sync(): a crash after the rename can leave a torn file at the final path")
			}
		}
	}
}
