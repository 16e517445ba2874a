package adb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"squid/internal/relation"
	"squid/internal/trace"
)

// alphaFingerprint captures everything discovery-visible about an αDB:
// entity property lists (names, kinds, access paths), per-value
// statistics, derived relation names and contents. Two builds with the
// same input must produce identical fingerprints regardless of the
// worker count.
func alphaFingerprint(a *AlphaDB) string {
	out := ""
	for _, name := range a.DB().EntityRelations() {
		info := a.Entity(name)
		out += fmt.Sprintf("entity %s rows=%d\n", name, info.NumRows)
		for _, p := range info.Basic {
			out += fmt.Sprintf("  basic %s kind=%d multi=%v access=%+v distinct=%d vals=%v\n",
				p.Attr, p.Kind, p.MultiValued, p.Access, p.NumDistinct(), p.DistinctValues())
			for _, v := range p.DistinctValues() {
				out += fmt.Sprintf("    %q -> %v\n", v, p.EntityRowSetWithAnyCode([]int32{p.code(v)}, trace.Span{}, false).ToSorted())
			}
		}
		for _, p := range info.Derived {
			out += fmt.Sprintf("  derived %s rel=%s via=%s target=%+v\n", p.Attr, p.RelName, p.Via, p.Target)
			for _, v := range p.DistinctValues() {
				out += fmt.Sprintf("    %q -> %v max=%d\n", v, p.SelectivityOfCode(p.code(v), 1), p.maxStrength(p.code(v)))
			}
		}
	}
	ep := a.Snapshot()
	for _, name := range ep.DB.EntityRelations() {
		for _, p := range ep.Entity(name).Derived {
			rel := ep.CombinedDB().View(p.RelName).Rows(nil)
			out += fmt.Sprintf("derivedrel %s rows=%d\n", p.RelName, rel.NumRows())
			for i := 0; i < rel.NumRows(); i++ {
				out += fmt.Sprintf("  %v\n", rel.Row(i))
			}
		}
	}
	return out
}

// TestParallelBuildDeterministic asserts the parallel offline build is
// byte-identical to the serial one across several worker counts.
func TestParallelBuildDeterministic(t *testing.T) {
	cfgAt := func(workers int) Config {
		cfg := DefaultConfig()
		cfg.Workers = workers
		return cfg
	}
	serial, err := Build(fixtureDB(), cfgAt(1))
	if err != nil {
		t.Fatal(err)
	}
	want := alphaFingerprint(serial)
	for _, workers := range []int{2, 4, 8, 0} {
		par, err := Build(fixtureDB(), cfgAt(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := alphaFingerprint(par); got != want {
			t.Errorf("workers=%d: αDB diverged from serial build\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, want, got)
		}
	}
}

// TestParallelBuildInvertedIdentical asserts that entity lookup — the
// dictionaries' normal indexes over the code indexes, the paper's
// inverted column index — answers a serial and a parallel build alike:
// every TEXT value of the fixture, and probes in other spellings.
func TestParallelBuildInvertedIdentical(t *testing.T) {
	serial, err := Build(fixtureDB(), Config{MaxFactDepth: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Build(fixtureDB(), Config{MaxFactDepth: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	probes := []string{"tom  CRUISE", "Comedy", "USA", "MovieA", "male"}
	for _, name := range serial.DB().RelationNames() {
		for _, col := range serial.DB().Relation(name).Columns() {
			if col.Type == relation.String {
				probes = append(probes, col.Dict().Values()...)
			}
		}
	}
	for _, probe := range probes {
		s := serial.Snapshot().CommonColumns([]string{probe})
		p := parallel.Snapshot().CommonColumns([]string{probe})
		if len(s) == 0 || !reflect.DeepEqual(s, p) {
			t.Errorf("lookup of %q diverged: serial %v parallel %v", probe, s, p)
		}
	}
}

// TestBuildWorkersPreservedWithZeroDepth asserts that a zero depth
// means 2 and keeps an explicit worker count, and that Build refuses a
// depth outside 0..2.
func TestBuildWorkersPreservedWithZeroDepth(t *testing.T) {
	a, err := Build(fixtureDB(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Config().Workers; got != 1 {
		t.Errorf("Workers=%d after default upgrade, want 1", got)
	}
	if got := a.Config().MaxFactDepth; got != 2 {
		t.Errorf("MaxFactDepth=%d after default upgrade, want 2", got)
	}
	for _, depth := range []int{-1, 3} {
		if _, err := Build(fixtureDB(), Config{MaxFactDepth: depth}); err == nil || !strings.Contains(err.Error(), "MaxFactDepth") {
			t.Errorf("depth %d: Build = %v, want an error naming MaxFactDepth", depth, err)
		}
	}
}

// TestDictionaryEncodingReducesBytes sanity-checks the storage layer
// claim behind the ISSUE acceptance: dictionary-encoded TEXT columns
// report a smaller footprint than 16-bytes-per-header string storage
// when values repeat.
func TestDictionaryEncodingReducesBytes(t *testing.T) {
	col := relation.NewColumn("cat", relation.String)
	for i := 0; i < 10000; i++ {
		if err := col.Append(relation.StringVal(fmt.Sprintf("value-%d", i%8))); err != nil {
			t.Fatal(err)
		}
	}
	// Dense storage: 4 bytes per row plus a tiny dictionary.
	if got, naive := col.ByteSize(), int64(10000*16); got >= naive {
		t.Errorf("dictionary-encoded ByteSize=%d, want well under naive %d", got, naive)
	}
	if col.Dict().Len() != 8 {
		t.Errorf("dict size=%d want 8", col.Dict().Len())
	}
}
