package squid

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"squid/internal/datagen"
	"squid/internal/relation"
	"squid/internal/snapshot"
)

// snapshotSystem builds a small IMDb system for round-trip tests.
func snapshotSystem(t *testing.T) (*System, *datagen.IMDb) {
	t.Helper()
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 11, NumPersons: 300, NumMovies: 150, NumCompany: 10})
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys, g
}

// exampleNames picks comedian names from the generator (a discovery-rich
// intent: shared gender, genre associations, degree).
func exampleNames(t *testing.T, sys *System, g *datagen.IMDb, k int) []string {
	t.Helper()
	person := g.DB.Relation("person")
	info := sys.AlphaDB().Entity("person")
	var out []string
	for _, id := range g.Comedians {
		if len(out) == k {
			break
		}
		row, ok := info.RowByID(id)
		if !ok {
			t.Fatalf("comedian id %d has no αDB row", id)
		}
		out = append(out, person.Column("name").Get(row).Str())
	}
	if len(out) < k {
		t.Fatalf("generator produced %d comedians, want %d", len(out), k)
	}
	return out
}

// discoveryFingerprint captures everything a user can observe from a
// discovery, byte-exactly.
func discoveryFingerprint(t *testing.T, sys *System, examples []string) string {
	t.Helper()
	disc, err := sys.DiscoverContext(context.Background(), examples)
	if err != nil {
		t.Fatal(err)
	}
	out := disc.Explain()
	for _, v := range disc.Output {
		out += v + "\n"
	}
	return out
}

// TestSnapshotRoundTrip saves a built system, loads it back, and asserts
// the discovery result and Explain output are byte-identical — the
// warm-boot contract of the snapshot format. The system is built
// serially; the worker count is a setting of the building process, so
// the loaded one reports none and fans out over its own GOMAXPROCS.
func TestSnapshotRoundTrip(t *testing.T) {
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 11, NumPersons: 300, NumMovies: 150, NumCompany: 10})
	cfg := DefaultBuildConfig()
	cfg.Workers = 1
	sys, err := Build(g.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	examples := exampleNames(t, sys, g, 8)
	before := discoveryFingerprint(t, sys, examples)

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	after := discoveryFingerprint(t, loaded, examples)
	if before != after {
		t.Errorf("discovery diverged across snapshot round trip:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if got := loaded.AlphaDB().Config().Workers; got != 0 {
		t.Errorf("loaded Config().Workers = %d, want 0: the file records no worker count", got)
	}

	// Statistics surfaces must agree too.
	bs, ls := sys.Stats(), loaded.Stats()
	if bs.NumBasicProps != ls.NumBasicProps || bs.NumDerivedProp != ls.NumDerivedProp ||
		bs.NumDerivedRels != ls.NumDerivedRels || bs.DerivedRows != ls.DerivedRows {
		t.Errorf("stats diverged: built %+v loaded %+v", bs, ls)
	}
}

// TestSnapshotRoundTripAfterInsert asserts a loaded system supports
// incremental maintenance identically to the system it was saved from:
// the same post-load inserts yield byte-identical discovery output.
func TestSnapshotRoundTripAfterInsert(t *testing.T) {
	sys, g := snapshotSystem(t)
	examples := exampleNames(t, sys, g, 8)

	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Apply identical inserts to both systems: a new person, a new
	// movie, and facts linking the person into existing structure.
	insert := func(s *System) {
		if err := s.InsertBatchContext(context.Background(), []InsertOp{
			{Rel: "person", Vals: []Value{IntVal(900001), StringVal("Roundtrip Actor"), StringVal("Male"), IntVal(1980), IntVal(1)}},
			{Rel: "castinfo", Vals: []Value{IntVal(900001), IntVal(1), IntVal(1)}},
			{Rel: "castinfo", Vals: []Value{IntVal(900001), IntVal(2), IntVal(1)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	insert(sys)
	insert(loaded)

	before := discoveryFingerprint(t, sys, examples)
	after := discoveryFingerprint(t, loaded, examples)
	if before != after {
		t.Errorf("post-insert discovery diverged:\n--- built ---\n%s\n--- loaded ---\n%s", before, after)
	}

	// The inserted entity must be discoverable on both systems.
	for name, s := range map[string]*System{"built": sys, "loaded": loaded} {
		if _, err := s.DiscoverContext(context.Background(), []string{"Roundtrip Actor"}); err != nil {
			t.Errorf("%s system cannot discover inserted entity: %v", name, err)
		}
	}
}

// TestSnapshotSaveLoadSaveIdentical: a loaded system saves to the bytes
// it was loaded from — fresh, and after inserts, whose derived rows the
// load puts back in cold-build order without changing what the file
// holds.
func TestSnapshotSaveLoadSaveIdentical(t *testing.T) {
	sys, _ := snapshotSystem(t)
	save := func(s *System) []byte {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, state := range []string{"fresh", "after inserts"} {
		if state == "after inserts" {
			if err := sys.InsertBatchContext(context.Background(), []InsertOp{
				{Rel: "person", Vals: []Value{IntVal(900002), StringVal("Resaved Actor"), StringVal("Female"), IntVal(1975), IntVal(1)}},
				{Rel: "castinfo", Vals: []Value{IntVal(900002), IntVal(1), IntVal(1)}},
				{Rel: "castinfo", Vals: []Value{IntVal(1), IntVal(2), IntVal(1)}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		first := save(sys)
		loaded, err := Load(bytes.NewReader(first))
		if err != nil {
			t.Fatal(err)
		}
		if second := save(loaded); !bytes.Equal(first, second) {
			t.Errorf("%s: Save → Load → Save wrote %d bytes, then %d different ones", state, len(first), len(second))
		}
	}
}

// TestDictionariesFindEveryValue: the dictionaries of a built system,
// of one that has taken inserts and of one loaded from its snapshot
// find every value at its code through their normal indexes — a value
// an insert interned included.
func TestDictionariesFindEveryValue(t *testing.T) {
	sys, _ := snapshotSystem(t)
	check := func(state string, s *System) {
		t.Helper()
		db := s.AlphaDB().DB()
		for _, name := range db.RelationNames() {
			for _, col := range db.Relation(name).Columns() {
				d := col.Dict()
				if d == nil {
					continue
				}
				for code, v := range d.Values() {
					if got, ok := d.Lookup(v); !ok || got != int32(code) {
						t.Fatalf("%s: %s.%s: Lookup(%q) = %d, %v; want %d", state, name, col.Name, v, got, ok, code)
					}
				}
			}
		}
	}
	check("built", sys)
	if err := sys.InsertBatchContext(context.Background(), []InsertOp{
		{Rel: "person", Vals: []Value{IntVal(900003), StringVal("Interned By Probe"), StringVal("Female"), IntVal(1975), IntVal(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	check("after an insert", sys)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("loaded", loaded)
	if _, ok := loaded.AlphaDB().DB().Relation("person").Column("name").Dict().Lookup("Interned By Probe"); !ok {
		t.Error("loaded: the inserted name is not found")
	}
}

// TestLoadedDictionariesHoldNoSpare: a loaded dictionary adopts the
// value slice the snapshot reader fills (relation.RestoreDict), so the
// reader hands it over at its exact size. Every dictionary of a loaded
// system, before anything looks a value up in it, costs what a
// dictionary restored from an exact-size copy of its values costs.
func TestLoadedDictionariesHoldNoSpare(t *testing.T) {
	sys, _ := snapshotSystem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	db := loaded.AlphaDB().DB()
	dicts := 0
	for _, name := range db.RelationNames() {
		for _, col := range db.Relation(name).Columns() {
			d := col.Dict()
			if d == nil {
				continue
			}
			dicts++
			exact := relation.RestoreDict(append(make([]string, 0, d.Len()), d.Values()...))
			exact.BuildNormalIndex() // as Load builds every TEXT column's
			if got, want := d.ByteSize(), exact.ByteSize(); got != want {
				t.Errorf("%s.%s: %d values in %d B, %d B at their exact size", name, col.Name, d.Len(), got, want)
			}
		}
	}
	if dicts == 0 {
		t.Fatal("the loaded system has no dictionary")
	}
}

// TestInsertedDictionariesGrowByBoundedSteps: the first value interned
// into a loaded dictionary, held at its exact size, grows it by a
// bounded step (1/32 of its values, at least 64), not by append's rule.
// After the benchmark's 24 insert batches (afterInserts) the
// dictionaries hold at most 1/32 of their loaded bytes more than the
// values interned since take; append's rule took 14% more at bench
// scale.
func TestInsertedDictionariesGrowByBoundedSteps(t *testing.T) {
	cfg := benchScale().IMDb
	built, err := Build(datagen.GenerateIMDb(cfg).DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	inserted := afterInserts(t, built, cfg)
	before, after := loaded.ResidentBytes().Dicts, inserted.ResidentBytes().Dicts
	interned := int64(0)
	db, ldb := inserted.AlphaDB().DB(), loaded.AlphaDB().DB()
	for _, name := range db.RelationNames() {
		for _, col := range db.Relation(name).Columns() {
			if d := col.Dict(); d != nil {
				for _, v := range d.Values()[ldb.Relation(name).Column(col.Name).Dict().Len():] {
					interned += 16 + int64(len(v))
				}
			}
		}
	}
	if interned == 0 {
		t.Fatal("the inserts interned no value")
	}
	if limit := before + before/32 + interned; after > limit {
		t.Errorf("dictionaries take %d B after the inserts, %d B loaded and %d B for the values interned since: over %d", after, before, interned, limit)
	}
}

// TestSnapshotVersionMismatch asserts the strict version policy: a
// stream with a newer or an older version (v4, the format that still
// stored every inverse beside the data it inverts, v3 and v2 before it)
// is rejected with ErrSnapshotVersion.
func TestSnapshotVersionMismatch(t *testing.T) {
	sys, _ := snapshotSystem(t)
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// The version varint lives right after the 4-byte magic.
	for _, v := range []byte{b[4] + 1, 5, 4, 3, 2} {
		b[4] = v
		if _, err := Load(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotVersion) {
			t.Errorf("Load of a version-%d snapshot = %v, want ErrSnapshotVersion", v, err)
		}
	}

	// And garbage is rejected without panicking.
	if _, err := Load(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Error("Load of garbage succeeded")
	}
}

// TestLoadRejectsDamagedParams: the snapshot carries no checksum, so
// the discovery parameters Load reads are checked where they are read.
// One damaged field — a non-finite float, a base prior ρ outside [0, 1],
// a negative τa or MaxDisjunction — is an error from Load, not a system
// whose every include score is NaN and whose every discovery silently
// selects no filter. Each case writes one damaged field; the bounds
// themselves still load.
func TestLoadRejectsDamagedParams(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		damage func(*Params)
		ok     bool
	}{
		{"rho NaN", func(p *Params) { p.Rho = math.NaN() }, false},
		{"rho below 0", func(p *Params) { p.Rho = -0.1 }, false},
		{"rho above 1", func(p *Params) { p.Rho = 1.5 }, false},
		{"gamma +Inf", func(p *Params) { p.Gamma = math.Inf(1) }, false},
		{"eta NaN", func(p *Params) { p.Eta = math.NaN() }, false},
		{"tauA negative", func(p *Params) { p.TauA = -1 }, false},
		{"tauS -Inf", func(p *Params) { p.TauS = math.Inf(-1) }, false},
		{"outlierK NaN", func(p *Params) { p.OutlierK = math.NaN() }, false},
		{"tauANorm +Inf", func(p *Params) { p.TauANorm = math.Inf(1) }, false},
		{"maxDisjunction negative", func(p *Params) { p.MaxDisjunction = -2 }, false},
		{"rho 0", func(p *Params) { p.Rho = 0 }, true},
		{"rho 1", func(p *Params) { p.Rho = 1 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.damage(&p)
			sys.SetParams(p)
			var buf bytes.Buffer
			if err := sys.Save(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := Load(&buf)
			if tc.ok && err != nil {
				t.Errorf("Load = %v, want a system", err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Load accepted %+v", p)
			}
		})
	}
}

// TestLoadRejectsDamagedConfig: the build configuration a snapshot
// stores is its fact-table depth, and Load refuses a depth other than 1
// or 2 even under a valid trailer, as Build refuses one outside 0..2 (0
// means 2): a loaded system would otherwise write it back at its next
// Save. Each case re-encodes the depth and reseals the trailer.
func TestLoadRejectsDamagedConfig(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The depth follows the header, the parameters and the epoch
	// sequence, 0 for a fresh build.
	var head bytes.Buffer
	w := snapshot.NewWriter(&head)
	w.Header()
	writeParams(w, sys.params)
	w.Uvarint(0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	at := head.Len()
	if depth, n := binary.Varint(data[at:]); !bytes.HasPrefix(data, head.Bytes()) || depth != 2 || n != 1 {
		t.Fatalf("no depth 2 after the header, parameters and sequence")
	}
	for _, depth := range []int64{-1, 0, 1, 2, 3, 1 << 40} {
		bad := binary.AppendVarint(slices.Clone(data[:at]), depth)
		bad = append(bad, data[at+1:]...)
		_, err := Load(bytes.NewReader(reseal(bad)))
		if ok := depth == 1 || depth == 2; ok != (err == nil) {
			t.Errorf("depth %d: Load = %v", depth, err)
		}
	}
}

// TestSnapshotBytesPerRow is the file-size guard beside the heap one:
// what Save of the bench-scale fixture writes, per base-relation row,
// stays under a budget set about 8% above format v9 (8.1 B/row), which
// writes an INTEGER column as a base and one 1-, 2-, 4- or 8-byte offset
// a cell. v8 wrote 8 bytes an INTEGER cell (26 B/row). The formats
// before it stored something the base facts determine: v7 the
// categorical properties' per-row value codes (41), v6 also the derived
// relations (105), v5 also a numeric property's cells beside its column
// (106), and v4 every inverse beside the data it inverts (148). A block
// that creeps back into the format fails here before it reaches the
// benchmark's snapshot_mb.
func TestSnapshotBytesPerRow(t *testing.T) {
	const budget = 8.8 // B/row
	sys, err := Build(datagen.GenerateIMDb(benchScale().IMDb).DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	rows := sys.alpha.Snapshot().DB.TotalRows()
	perRow := float64(buf.Len()) / float64(rows)
	t.Logf("Save of %d rows wrote %d bytes: %.1f B/row", rows, buf.Len(), perRow)
	if perRow > budget {
		t.Errorf("snapshot is %.1f B/row, budget %g", perRow, budget)
	}
}
