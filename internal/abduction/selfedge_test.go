package abduction

import (
	"context"
	"testing"

	"squid/internal/adb"
	"squid/internal/relation"
)

// TestNormalizedSelfEdgeNoDegree regresses a crash in the index-backed
// row-set path: self-edge associations qualify their degree attribute
// (movie_movie_id:count), so the plain "movie:count" lookup during
// normalization finds nothing. Filters over such properties must fall
// back to the absolute threshold instead of dereferencing a nil degree
// property.
func TestNormalizedSelfEdgeNoDegree(t *testing.T) {
	db := relation.NewDatabase("selfref")
	movie := relation.New("movie",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
		relation.Col("kind", relation.String),
	).SetPrimaryKey("id")
	for i := int64(0); i < 6; i++ {
		kind := "feature"
		if i%2 == 0 {
			kind = "short"
		}
		movie.MustAppend(relation.IntVal(i), relation.StringVal("M"+string(rune('A'+i))), relation.StringVal(kind))
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")

	sequel := relation.New("sequelof",
		relation.Col("movie_id", relation.Int),
		relation.Col("original_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("original_id", "movie", "id")
	sequel.MustAppend(relation.IntVal(1), relation.IntVal(0))
	sequel.MustAppend(relation.IntVal(2), relation.IntVal(0))
	sequel.MustAppend(relation.IntVal(3), relation.IntVal(2))
	db.AddRelation(sequel)

	a, err := adb.Build(db, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.NormalizeAssociation = true

	// MB and MD are both sequels (movie_original_id associations), so
	// derived contexts over the self-edge exist; with normalization on
	// and no matching plain degree attribute this used to panic inside
	// RowSet.
	results, err := DiscoverCtx(context.Background(), a.Snapshot(), []string{"MB", "MD"}, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	for _, d := range res.Decisions {
		if d.Filter.Kind != Derived {
			continue
		}
		if d.Filter.NormUse {
			t.Errorf("filter %s uses normalization without a degree property", d.Filter)
		}
		_ = d.Filter.RowSet() // must not panic
		if !d.Filter.validFor(res.EntityInfo(), res.ExampleRows) {
			t.Errorf("filter %s not valid for the examples", d.Filter)
		}
	}
}
