// Fixture for the unusedexport analyzer. The harness loads this
// package under a synthetic "fixtures/internal/unusedexport" import
// path so the internal/-only gate applies. Nothing here is imported
// by the real module, so an exported identifier survives only by
// appearing in a _test.go file of the module (TestIdents) or by being
// structurally reachable from such an identifier's type signature.
package unusedexport

// --- positive cases: dead exported surface ---

func QzDead() int { return 1 } // want "exported identifier QzDead is used by no other package"

type QzOrphan struct{ N int } // want "exported identifier QzOrphan is used by no other package"

const QzDeadConst = 42 // want "exported identifier QzDeadConst is used by no other package"

var QzDeadVar = "unused" // want "exported identifier QzDeadVar is used by no other package"

type QzDeadAlias = QzOrphan // want "exported identifier QzDeadAlias is used by no other package"

// --- negative cases ---

// "DiscoverContext" appears throughout the module's test files, so the
// TestIdents signal keeps it; QzReachable is exempt because it is
// structurally reachable from DiscoverContext's result type.
func DiscoverContext() *QzReachable { return nil }

type QzReachable struct{ Hits int }

// "ExecuteContext" appears in the module's test files too; its parameter
// is an alias, which is reachable, and so is the type it stands for.
func ExecuteContext(QzOptions) {}

type QzOptions = QzAliased

type QzAliased struct{ Rows int }

// --- methods ---

// An exported method nothing selects and no interface declares is dead
// surface, whatever its receiver.
func (QzReachable) QzDeadMethod() {} // want "exported method QzReachable.QzDeadMethod is named by no selector"

func (*qzPrivate) QzDeadOnPrivate() {} // want "exported method qzPrivate.QzDeadOnPrivate is named by no selector"

// Named by a selector somewhere in the module (here, below).
func (QzReachable) QzSelected() int { return 0 }

var _ = QzReachable{}.QzSelected

// Declared by an interface the module can see: fmt.Stringer from an
// imported package, qzDoer written in these files.
func (QzReachable) String() string { return "" }

type qzDoer interface{ QzDo() }

type qzPrivate struct{}

func (*qzPrivate) QzDo() {}

var _ qzDoer = (*qzPrivate)(nil)

// Mentioned by a _test.go file of the module (TestIdents).
func (QzReachable) Explain() string { return "" }

// Unexported identifiers are never the analyzer's business.
func qzHelper() int { return 0 }

var _ = qzHelper
