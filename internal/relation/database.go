package relation

import (
	"fmt"
	"sort"
)

// EntityKind classifies relations for αDB construction, following the
// paper's metadata model (§5): the administrator marks which tables hold
// entities (person, movie) and which hold direct properties (genre);
// fact tables that associate them are discovered automatically from
// key-foreign-key edges.
type EntityKind int

const (
	// KindUnknown means the relation has no declared role; the αDB
	// builder will classify it as a fact table if its foreign keys
	// connect entities and properties.
	KindUnknown EntityKind = iota
	// KindEntity marks an entity relation (person, movie, author, ...).
	KindEntity
	// KindProperty marks a direct-property (dimension) relation
	// (genre, country, venue, ...).
	KindProperty
)

// Database is a named collection of relations plus the administrator
// metadata SQuID's offline module consumes. It can also name views,
// which store no row (see View).
type Database struct {
	Name      string
	relations map[string]*Relation
	order     []string // insertion order for deterministic iteration
	kinds     map[string]EntityKind
	views     map[string]*View
}

// View is a relation whose rows are not stored: they are built, for the
// one reader that asks, from structures that hold the same facts (an
// αDB's derived relations, from their properties' pair lists). Nothing
// the view builds is kept.
type View struct {
	// Schema is the view's name, columns and keys, holding no row: all
	// a query binds to.
	Schema *Relation
	// Point names the TEXT column Rows can restrict the rows to.
	Point string
	// Rows builds the view's rows: every row when codes is nil, else the
	// rows whose Point cell holds one of codes (codes of that column's
	// dictionary). The rows come in one order, which a restriction keeps.
	Rows func(codes []int32) *Relation
}

// NewDatabase creates an empty database.
func NewDatabase(name string) *Database {
	return &Database{
		Name:      name,
		relations: make(map[string]*Relation),
		kinds:     make(map[string]EntityKind),
	}
}

// AddRelation registers a relation; it panics on duplicate names.
func (d *Database) AddRelation(r *Relation) *Relation {
	if _, dup := d.relations[r.Name]; dup {
		panic(fmt.Sprintf("database %q: duplicate relation %q", d.Name, r.Name))
	}
	d.relations[r.Name] = r
	d.order = append(d.order, r.Name)
	return r
}

// Relation returns the named relation or nil (nil for a view).
func (d *Database) Relation(name string) *Relation { return d.relations[name] }

// AddView registers a view under its schema's name, which no relation
// holds.
func (d *Database) AddView(v *View) {
	if d.views == nil {
		d.views = make(map[string]*View)
	}
	d.views[v.Schema.Name] = v
}

// View returns the named view or nil.
func (d *Database) View(name string) *View { return d.views[name] }

// RelationNames returns relation names in insertion order.
func (d *Database) RelationNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// NumRelations returns the number of relations.
func (d *Database) NumRelations() int { return len(d.order) }

// MarkEntity flags a relation as an entity relation.
func (d *Database) MarkEntity(name string) {
	d.mustHave(name)
	d.kinds[name] = KindEntity
}

// MarkProperty flags a relation as a direct-property relation.
func (d *Database) MarkProperty(name string) {
	d.mustHave(name)
	d.kinds[name] = KindProperty
}

func (d *Database) mustHave(name string) {
	if _, ok := d.relations[name]; !ok {
		panic(fmt.Sprintf("database %q: no relation %q", d.Name, name))
	}
}

// Kind returns the declared role of a relation.
func (d *Database) Kind(name string) EntityKind { return d.kinds[name] }

// EntityRelations returns the names of entity relations, sorted.
func (d *Database) EntityRelations() []string { return d.byKind(KindEntity) }

// PropertyRelations returns the names of property relations, sorted.
func (d *Database) PropertyRelations() []string { return d.byKind(KindProperty) }

func (d *Database) byKind(k EntityKind) []string {
	var out []string
	for name, kind := range d.kinds {
		if kind == k {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// CloneWith returns a shallow clone of the database whose relation map
// replaces the given entries: the copy-on-write epoch publish step uses
// it to swap in a writer's privatized relations while structurally
// sharing every untouched one. Relation order, kind metadata, and the
// name are shared — epochs never add or remove relations.
func (d *Database) CloneWith(replace map[string]*Relation) *Database {
	q := &Database{
		Name:      d.Name,
		relations: make(map[string]*Relation, len(d.relations)),
		order:     d.order,
		kinds:     d.kinds,
	}
	for name, r := range d.relations {
		q.relations[name] = r
	}
	for name, r := range replace {
		if _, known := q.relations[name]; known {
			q.relations[name] = r
		}
	}
	return q
}

// ByteSize estimates the total footprint of all relations (Fig 18).
func (d *Database) ByteSize() int64 {
	var n int64
	for _, name := range d.order {
		n += d.relations[name].ByteSize()
	}
	return n
}

// TotalRows returns the sum of all relation cardinalities.
func (d *Database) TotalRows() int {
	n := 0
	for _, name := range d.order {
		n += d.relations[name].NumRows()
	}
	return n
}
