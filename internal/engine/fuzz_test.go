package engine_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"squid"
	"squid/internal/datagen"
	"squid/internal/engine"
	"squid/internal/server"
)

// FuzzExecutePlan holds POST /v1/execute's path from bytes to rows —
// JSON → server.QueryJSON → ToEngineQuery → the executor — to "an error,
// or the rows the nested-loop reference returns; never a panic", over
// the combined database (base and derived relations) of a small IMDb
// αDB, on a fresh index pool and on the αDB's own. The committed corpus
// holds the three plans of the repository benchmark's execute block and
// one query per operator and clause.
func FuzzExecutePlan(f *testing.F) {
	sys, err := squid.Build(datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 90, NumMovies: 40, NumCompany: 6}).DB, squid.DefaultBuildConfig())
	if err != nil {
		f.Fatal(err)
	}
	db := sys.ExecutableDB()
	f.Fuzz(func(t *testing.T, data []byte) {
		var wire server.QueryJSON
		if json.Unmarshal(data, &wire) != nil {
			return
		}
		q, err := wire.ToEngineQuery()
		if err != nil {
			return
		}
		fresh, err := engine.NewExecutor(db).ExecuteCtx(context.Background(), q)
		pooled, perr := sys.ExecuteContext(context.Background(), q)
		if (err == nil) != (perr == nil) {
			t.Fatalf("a fresh pool answers error %v, the αDB's pool %v", err, perr)
		}
		if err != nil {
			return
		}
		// The reference gives up on a query whose nested loops or linear
		// searches pass four million steps: a cross product, mostly.
		budget := 1 << 22
		want, ok := engine.ReferenceWithin(db, q, &budget)
		if !ok {
			return
		}
		for _, got := range []*engine.Result{fresh, pooled} {
			if len(got.Rows) != len(want) || len(want) > 0 && !reflect.DeepEqual(got.Rows, want) {
				t.Fatalf("%s\n got %v\nwant %v", data, got.Rows, want)
			}
		}
	})
}
