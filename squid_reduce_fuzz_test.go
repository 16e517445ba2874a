package squid_test

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"squid"
	"squid/internal/engine"
	"squid/internal/server"
)

// fuzzPlans returns fuzzDB's own plans on the wire, by name: the plan of
// every discovery of FuzzExampleSets under the default and the QRE
// parameters, and every PlanMutations rewrite of each.
func fuzzPlans(tb testing.TB, sys *squid.System) map[string][]byte {
	tb.Helper()
	db := sys.ExecutableDB()
	plans := map[string][]byte{}
	add := func(name string, q *squid.Query) {
		data, err := json.Marshal(server.FromEngineQuery(q))
		if err != nil {
			tb.Fatal(err)
		}
		plans[name] = data
	}
	for pi, params := range []squid.Params{squid.DefaultParams(), squid.QREParams()} {
		sys.SetParams(params)
		for si, set := range squid.FuzzExampleSets {
			d, err := sys.DiscoverContext(context.Background(), set)
			if err != nil {
				tb.Fatal(err)
			}
			name := "plan-" + []string{"default", "qre"}[pi] + "-" + string(rune('a'+si))
			add(name, d.Plan())
			for _, m := range squid.PlanMutations(db, d.Plan()) {
				add(name+"-"+m.Name, m.Query)
			}
		}
	}
	return plans
}

// FuzzExecuteReduced holds System.ExecuteContext — the join pipeline behind the
// reduce stage — to the join pipeline alone, from the bytes of a POST
// /v1/execute body on: JSON → server.QueryJSON → ToEngineQuery → both
// executors over fuzzDB's epoch must return the same rows in the same
// order, or errors that read the same. The committed corpus
// (testdata/fuzz/FuzzExecuteReduced) is the wire form of fuzzDB's own
// discovered plans and of their PlanMutations rewrites; the live ones are
// added as well, so the fuzzer starts from plans the reducer recognizes
// even after a lowering changes.
func FuzzExecuteReduced(f *testing.F) {
	sys, err := squid.Build(squid.FuzzDB(), squid.DefaultBuildConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, data := range fuzzPlans(f, sys) {
		f.Add(data)
	}
	ep := sys.AlphaDB().Snapshot()
	plain := engine.NewExecutorWithIndexes(ep.CombinedDB(), ep.Indexes)
	f.Fuzz(func(t *testing.T, data []byte) {
		var wire server.QueryJSON
		if json.Unmarshal(data, &wire) != nil {
			return
		}
		q, err := wire.ToEngineQuery()
		if err != nil {
			return
		}
		got, err := sys.ExecuteContext(context.Background(), q)
		want, werr := plain.ExecuteCtx(context.Background(), q)
		if err != nil || werr != nil {
			if err == nil || werr == nil || err.Error() != werr.Error() {
				t.Fatalf("%s\nExecute answers error %v, the join pipeline %v", data, err, werr)
			}
			return
		}
		if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s\n got %v\nwant %v", data, got.Rows, want.Rows)
		}
	})
}
