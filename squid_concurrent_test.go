package squid

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestInsertBatchMatchesSequential checks that a mixed entity/fact
// batch leaves the system in exactly the state of the equivalent
// sequence of one-row batches, and that a failing row reports its index
// while the rows before it stay applied.
func TestInsertBatchMatchesSequential(t *testing.T) {
	batched, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := []InsertOp{
		{Rel: "academics", Vals: []Value{IntVal(106), StringVal("Mike Stonebraker")}},
		{Rel: "research", Vals: []Value{IntVal(106), StringVal("data management")}},
		{Rel: "research", Vals: []Value{IntVal(100), StringVal("distributed systems")}},
	}
	if err := batched.InsertBatchContext(context.Background(), ops); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if err := serial.InsertBatchContext(context.Background(), ops[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	examples := []string{"Dan Suciu", "Sam Madden", "Mike Stonebraker"}
	db, err := batched.DiscoverContext(context.Background(), examples)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := serial.DiscoverContext(context.Background(), examples)
	if err != nil {
		t.Fatal(err)
	}
	if db.Explain() != ds.Explain() {
		t.Errorf("batched and serial systems diverge:\n%s\nvs\n%s", db.Explain(), ds.Explain())
	}

	// A failing row stops the batch, reports its index, and keeps the
	// rows already applied.
	err = batched.InsertBatchContext(context.Background(), []InsertOp{
		{Rel: "research", Vals: []Value{IntVal(101), StringVal("systems")}},
		{Rel: "academics", Vals: []Value{IntVal(106), StringVal("Duplicate")}},
		{Rel: "research", Vals: []Value{IntVal(102), StringVal("never applied")}},
	})
	if err == nil {
		t.Fatal("duplicate-key batch reported no error")
	}
	if !strings.Contains(err.Error(), "batch insert 1") {
		t.Errorf("error does not name the failing row: %v", err)
	}
	research := batched.ExecutableDB().Relation("research")
	last := research.Column("interest").Get(research.NumRows() - 1).Str()
	if last != "systems" {
		t.Errorf("row before the failure not applied; last interest = %q", last)
	}
}

// TestConcurrentDiscoveryAndIngest interleaves DiscoverBatch with
// one-row and two-row insert batches over one shared System; under -race it
// proves the write path needs no external serialization with discovery,
// and afterwards it checks discovery answers from the post-ingest
// statistics.
func TestConcurrentDiscoveryAndIngest(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Params()
	p.Workers = 4
	sys.SetParams(p)
	sets := [][]string{
		{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"},
		{"Thomas Cormen", "James Kurose"},
		{"Jiawei Han", "Dan Suciu"},
	}
	baseline, err := sys.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden"})
	if err != nil {
		t.Fatal(err)
	}

	const (
		readers    = 4
		rounds     = 20
		writerOps  = 90
		newScholar = 200 // first id of the ingested scholars
	)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, errs := sys.DiscoverBatch(context.Background(), sets)
				for j, d := range res {
					if d == nil {
						t.Errorf("set %d during ingest: %v", j, errs[j])
						return
					}
				}
				// Exercise the engine read path under ingest too.
				if _, err := sys.ExecuteContext(context.Background(), res[0].Plan()); err != nil {
					t.Errorf("execute during ingest: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		id := int64(newScholar)
		for i := 0; i < writerOps; i++ {
			switch i % 3 {
			case 0:
				if err := sys.InsertBatchContext(context.Background(), []InsertOp{{Rel: "academics", Vals: []Value{IntVal(id), StringVal(fmt.Sprintf("Scholar %d", id))}}}); err != nil {
					t.Errorf("insert entity: %v", err)
					return
				}
				id++
			case 1:
				if err := sys.InsertBatchContext(context.Background(), []InsertOp{{Rel: "research", Vals: []Value{IntVal(100 + int64(i%6)), StringVal("systems")}}}); err != nil {
					t.Errorf("insert fact: %v", err)
					return
				}
			default:
				ops := []InsertOp{
					{Rel: "academics", Vals: []Value{IntVal(id), StringVal(fmt.Sprintf("Scholar %d", id))}},
					{Rel: "research", Vals: []Value{IntVal(id), StringVal("data management")}},
				}
				id++
				if err := sys.InsertBatchContext(context.Background(), ops); err != nil {
					t.Errorf("insert batch: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	// The ingested data-management scholars widen the intent's output.
	after, err := sys.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden"})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Output) <= len(baseline.Output) {
		t.Errorf("post-ingest output %d not larger than baseline %d", len(after.Output), len(baseline.Output))
	}
	found := false
	for _, v := range after.Output {
		if strings.HasPrefix(v, "Scholar ") {
			found = true
			break
		}
	}
	if !found {
		t.Error("post-ingest discovery output misses the ingested scholars")
	}
}
