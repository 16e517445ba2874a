package datagen

import (
	"squid/internal/relation"
)

// BSIMDb builds the bs-IMDb variant of Appendix D.1: every person,
// movie, and company is duplicated (with new primary keys), and for each
// original castinfo pair (P1, M1) only the duplicate pair (P2, M2) is
// added — sparse associations.
func BSIMDb(base *IMDb) *relation.Database {
	return upsizeIMDb(base, false)
}

// BDIMDb builds the bd-IMDb variant: same duplication, but each original
// association (P1, M1) additionally yields (P1, M2) and (P2, M1) —
// dense associations (Appendix D.1's 3 new pairs per original).
func BDIMDb(base *IMDb) *relation.Database {
	return upsizeIMDb(base, true)
}

// upsizeIMDb duplicates the entity relations of the base database and
// rewires the fact tables per the Appendix D.1 rules.
func upsizeIMDb(base *IMDb, dense bool) *relation.Database {
	src := base.DB
	name := "bs-imdb"
	if dense {
		name = "bd-imdb"
	}
	db := relation.NewDatabase(name)

	// Dimensions are shared (copied as-is).
	for _, dim := range []string{"genre", "country", "language", "role", "keyword", "award"} {
		db.AddRelation(copyRelation(src.Relation(dim)))
		db.MarkProperty(dim)
	}

	// Entity relations: duplicate every row with offset ids and a
	// " (dup)" suffix on the display value so entity lookup keeps the
	// copies distinguishable.
	personOff := int64(src.Relation("person").NumRows())
	movieOff := int64(src.Relation("movie").NumRows())
	companyOff := int64(src.Relation("company").NumRows())
	db.AddRelation(duplicateEntities(src.Relation("person"), "name", personOff))
	db.MarkEntity("person")
	db.AddRelation(duplicateEntities(src.Relation("movie"), "title", movieOff))
	db.MarkEntity("movie")
	db.AddRelation(duplicateEntities(src.Relation("company"), "name", companyOff))
	db.MarkEntity("company")

	// movie-side fact tables: duplicate the association for the
	// duplicate movie (sharing dimensions).
	for _, fact := range []struct {
		rel string
		col string
	}{
		{"movietogenre", "movie_id"},
		{"movietocountry", "movie_id"},
		{"movietokeyword", "movie_id"},
	} {
		r := src.Relation(fact.rel)
		nr := copyRelation(r)
		for i := 0; i < r.NumRows(); i++ {
			row := r.Row(i)
			dup := append([]relation.Value(nil), row...)
			idx := r.ColumnIndex(fact.col)
			dup[idx] = relation.IntVal(row[idx].Int() + movieOff)
			nr.MustAppend(dup...)
		}
		db.AddRelation(nr)
	}

	// movietocompany: both ids shift.
	{
		r := src.Relation("movietocompany")
		nr := copyRelation(r)
		mi, ci := r.ColumnIndex("movie_id"), r.ColumnIndex("company_id")
		for i := 0; i < r.NumRows(); i++ {
			row := r.Row(i)
			dup := append([]relation.Value(nil), row...)
			dup[mi] = relation.IntVal(row[mi].Int() + movieOff)
			dup[ci] = relation.IntVal(row[ci].Int() + companyOff)
			nr.MustAppend(dup...)
		}
		db.AddRelation(nr)
	}

	// castinfo: the Appendix D.1 rules. Original (P1, M1) always stays;
	// (P2, M2) is added; dense additionally adds (P1, M2) and (P2, M1).
	{
		r := src.Relation("castinfo")
		nr := copyRelation(r)
		pi, mi := r.ColumnIndex("person_id"), r.ColumnIndex("movie_id")
		for i := 0; i < r.NumRows(); i++ {
			row := r.Row(i)
			p1, m1 := row[pi].Int(), row[mi].Int()
			p2, m2 := p1+personOff, m1+movieOff
			add := func(p, m int64) {
				dup := append([]relation.Value(nil), row...)
				dup[pi] = relation.IntVal(p)
				dup[mi] = relation.IntVal(m)
				nr.MustAppend(dup...)
			}
			add(p2, m2)
			if dense {
				add(p1, m2)
				add(p2, m1)
			}
		}
		db.AddRelation(nr)
	}

	// persontoaward: duplicate for the duplicate person.
	{
		r := src.Relation("persontoaward")
		nr := copyRelation(r)
		pi := r.ColumnIndex("person_id")
		for i := 0; i < r.NumRows(); i++ {
			row := r.Row(i)
			dup := append([]relation.Value(nil), row...)
			dup[pi] = relation.IntVal(row[pi].Int() + personOff)
			nr.MustAppend(dup...)
		}
		db.AddRelation(nr)
	}
	return db
}

// copyRelation deep-copies a relation including rows and key metadata.
func copyRelation(r *relation.Relation) *relation.Relation {
	cols := make([]*relation.Column, 0, r.NumCols())
	for _, c := range r.Columns() {
		cols = append(cols, relation.Col(c.Name, c.Type))
	}
	nr := relation.New(r.Name, cols...)
	if r.PrimaryKey != "" {
		nr.SetPrimaryKey(r.PrimaryKey)
	}
	for _, fk := range r.Foreign {
		nr.AddForeignKey(fk.Column, fk.RefRelation, fk.RefColumn)
	}
	for i := 0; i < r.NumRows(); i++ {
		nr.MustAppend(r.Row(i)...)
	}
	return nr
}

// duplicateEntities copies the relation and appends a duplicate of every
// row with the primary key shifted by off and the display column
// suffixed.
func duplicateEntities(r *relation.Relation, displayCol string, off int64) *relation.Relation {
	nr := copyRelation(r)
	pk := r.ColumnIndex(r.PrimaryKey)
	dc := r.ColumnIndex(displayCol)
	for i := 0; i < r.NumRows(); i++ {
		row := r.Row(i)
		dup := append([]relation.Value(nil), row...)
		dup[pk] = relation.IntVal(row[pk].Int() + off)
		if !row[dc].IsNull() {
			dup[dc] = relation.StringVal(row[dc].Str() + " (dup)")
		}
		nr.MustAppend(dup...)
	}
	return nr
}
