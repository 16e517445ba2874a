package squid

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"squid/internal/abduction"
	"squid/internal/disambig"
)

// TestPinnedEpochOutputStableWhileInterning pins the read half of the
// order-preserving dictionary's contract: discoveries run against one
// retired epoch keep producing the same Output bytes while a writer
// interns new names into the very dictionary they are ordered by — past
// several rebuilds of its rank table — and a discovery over the current
// epoch sees the new names in sort.Strings order. Run under -race.
func TestPinnedEpochOutputStableWhileInterning(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Two researchers who share no property: the abduced query selects
	// no filter, so its output is every academic of the epoch.
	examples := []string{"Thomas Cormen", "James Kurose"}
	pinned := sys.AlphaDB().Snapshot()
	outputAt := func() ([]string, error) {
		res, err := abduction.DiscoverCtx(ctx, pinned, examples, sys.Params(), disambig.Resolve)
		if err != nil {
			return nil, err
		}
		return res[0].OutputValues(), nil
	}
	want, err := outputAt()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 6 || !sort.StringsAreSorted(want) {
		t.Fatalf("pinned output %q, want the six academics in order", want)
	}

	const inserts = 400 // the six-name dictionary folds many times over
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			// Names that sort before, between and after the original six.
			name := fmt.Sprintf("%c Inserted %d", 'A'+rune(i*7%26), i)
			if err := sys.InsertBatchContext(context.Background(), []InsertOp{{Rel: "academics", Vals: []Value{IntVal(int64(1000 + i)), StringVal(name)}}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				got, err := outputAt()
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want) {
					t.Errorf("pinned epoch answered %q, then %q", want, got)
					return
				}
				d, err := sys.DiscoverContext(ctx, examples)
				if err != nil {
					t.Error(err)
					return
				}
				if len(d.Output) < len(want) || !sort.StringsAreSorted(d.Output) {
					t.Errorf("current epoch's output is out of order or short: %q", d.Output)
					return
				}
			}
		}()
	}
	wg.Wait()
	d, err := sys.DiscoverContext(ctx, examples)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Output) != len(want)+inserts || !sort.StringsAreSorted(d.Output) {
		t.Errorf("after the inserts: %d values (sorted %v), want %d sorted", len(d.Output), sort.StringsAreSorted(d.Output), len(want)+inserts)
	}
}

// TestResidentBytesCountRankTables keeps the memory attribution honest
// about the one structure the read path builds lazily: the first
// discovery that orders an output builds the rank table of the output
// column's dictionary (a rank and an order entry, 8 bytes, per value),
// and ResidentBytes.Dicts — squid_resident_bytes{structure="dicts"} —
// grows by exactly that, while Columns stays.
func TestResidentBytesCountRankTables(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := sys.ResidentBytes()
	d, err := sys.DiscoverContext(context.Background(), []string{"Thomas Cormen", "James Kurose"})
	if err != nil {
		t.Fatal(err)
	}
	names := sys.ExecutableDB().Relation("academics").Column("name").Dict().Len()
	if len(d.Output) != names {
		t.Fatalf("output of %d values over a dictionary of %d: the fixture should output every name", len(d.Output), names)
	}
	after := sys.ResidentBytes()
	if got, want := after.Dicts-before.Dicts, int64(8*names); got != want || after.Columns != before.Columns {
		t.Errorf("Dicts grew by %d bytes and Columns by %d over the first ordered output, want the rank table's %d and none", got, after.Columns-before.Columns, want)
	}
	if after.DerivedPairs != before.DerivedPairs {
		t.Errorf("DerivedPairs moved from %d to %d with no derived value ordered", before.DerivedPairs, after.DerivedPairs)
	}
}
