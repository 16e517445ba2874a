// Fixture for the epochmutate analyzer: mutations of a published
// *adb.Epoch (and state reachable from one) are violations; freshly
// constructed epochs and Clone*-detached state are not.
package epochmutate

import (
	"squid/internal/adb"
	"squid/internal/relation"
)

// --- positive cases: published-epoch mutation ---

func assignField(e *adb.Epoch) {
	e.DB = nil // want "assignment to field DB of a published"
}

func assignMapEntry(e *adb.Epoch) {
	e.Entities["movie"] = nil // want "mutation of Entities reachable from a published"
}

func mutateReachableChained(e *adb.Epoch) {
	e.DB.Relation("movie").MustAppend() // want "MustAppend mutates state reachable from a published"
}

func mutateReachableViaLocal(e *adb.Epoch) {
	r := e.DB.Relation("movie")
	r.SetPrimaryKey("id") // want "SetPrimaryKey mutates state reachable from a published"
}

func assignIndexes(e *adb.Epoch) {
	e.Indexes = nil // want "assignment to field Indexes of a published"
}

// A resident index of a published epoch is as immutable as the epoch:
// the layered indexes share their base with every later epoch.
func insertIntoResidentIndex(e *adb.Epoch) {
	e.Indexes.ResidentIntHash(e.DB.Relation("movie"), "id").Insert(7, 3) // want "Insert mutates state reachable from a published"
}

func insertIntoResidentIndexViaLocal(e *adb.Epoch) {
	h := e.Indexes.ResidentIntHash(e.DB.Relation("movie"), "id")
	h.Insert(7, 3) // want "Insert mutates state reachable from a published"
}

// So is a TEXT column's code index, entity lookup's rows: a row added
// in place would show in every epoch that shares the list.
func postIntoTextIndex(e *adb.Epoch) {
	e.Indexes.ResidentIntHash(e.DB.Relation("movie"), "title").Insert(0, 3) // want "Insert mutates state reachable from a published"
}

// A published property's categorical statistics share their base (and
// their tail entries) with every epoch since the last fold: a posting
// list gaining a row in place changes what every reader of those epochs
// counts.
func addPostingOfPublished(e *adb.Epoch) {
	e.Entity("person").BasicByAttr("gender").Postings().AddRow(0, 7) // want "AddRow mutates state reachable from a published"
}

func addPostingViaLocal(e *adb.Epoch) {
	posts := e.Entities["person"].BasicByAttr("country").Postings()
	posts.AddRow(3, 7) // want "AddRow mutates state reachable from a published"
}

// --- negative cases ---

// Clone detaches an index (it copies the tail and shares the base); the
// writer's inserts stay in its private generation.
func cloneIndexesThenInsert(e *adb.Epoch) {
	e.Indexes.ResidentIntHash(e.DB.Relation("movie"), "id").Clone(nil).Insert(7, 3)
	titles := e.Indexes.ResidentIntHash(e.DB.Relation("movie"), "title").Clone(nil)
	titles.Insert(0, 3)
}

// Clone detaches a property's posting lists the same way: the tail's
// table is the clone's own, and a word is copied before it changes.
func clonePostingsThenAdd(e *adb.Epoch) {
	posts := e.Entity("person").BasicByAttr("gender").Postings().Clone(nil)
	posts.AddRow(0, 7)
}

// A freshly constructed epoch is private until published; initializing
// its fields is the normal build path.
func freshConstruction() *adb.Epoch {
	e := &adb.Epoch{}
	e.DB = relation.NewDatabase("d")
	e.Entities = map[string]*adb.EntityInfo{}
	return e
}

// CloneForWrite is the sanctioned escape hatch: the clone is private.
func cloneThenMutate(e *adb.Epoch) {
	r := e.DB.Relation("movie").CloneForWrite(nil)
	r.MustAppend()
}

// Reads never trip the analyzer.
func readOnly(e *adb.Epoch) int {
	return e.DB.Relation("movie").NumRows() + len(e.Entities)
}
