package squid

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fuzzDB extends the Fig 1 database with a second entity, a dimension
// and a fact table, so that its snapshot carries every kind of property
// a decoder rebuilds: direct categorical and numeric, FK-dimension,
// attribute-table, entity-association, and derived (degree and
// dimension) with their derived relations.
func fuzzDB() *Database {
	db := academicsDB()
	venue := NewRelation("venue", Col("id", Int), Col("name", String)).SetPrimaryKey("id")
	for i, n := range []string{"SIGMOD", "VLDB", "NSDI"} {
		venue.MustAppend(IntVal(int64(i)), StringVal(n))
	}
	db.AddRelation(venue)
	db.MarkProperty("venue")
	paper := NewRelation("paper",
		Col("id", Int), Col("title", String), Col("year", Int), Col("venue_id", Int),
	).SetPrimaryKey("id").AddForeignKey("venue_id", "venue", "id")
	wrote := NewRelation("wrote", Col("aid", Int), Col("pid", Int)).
		AddForeignKey("aid", "academics", "id").AddForeignKey("pid", "paper", "id")
	for i := int64(0); i < 8; i++ {
		paper.MustAppend(IntVal(i), StringVal("Paper "+string(rune('A'+i))), IntVal(2010+i%4), IntVal(i%3))
		wrote.MustAppend(IntVal(100+i%6), IntVal(i))
		wrote.MustAppend(IntVal(101+i%3*2), IntVal(i))
	}
	db.AddRelation(paper)
	db.MarkEntity("paper")
	db.AddRelation(wrote)
	return db
}

// fuzzWideDB is fuzzDB with a relation of INTEGER columns laid out at
// each offset width — 2, 4 and 8 bytes, one of them holding a NULL — so
// a seed of its snapshot carries every width the decoder checks.
func fuzzWideDB() *Database {
	db := fuzzDB()
	wide := NewRelation("stamps", Col("id", Int), Col("w2", Int), Col("w4", Int), Col("wide", Int)).SetPrimaryKey("id")
	for i := int64(0); i < 6; i++ {
		w4 := IntVal(-i << 20)
		if i == 3 {
			w4 = Null
		}
		wide.MustAppend(IntVal(i), IntVal(1000*i), w4, IntVal(math.MaxInt64-i<<40))
	}
	db.AddRelation(wide)
	return db
}

// fuzzExampleSets are example sets over fuzzDB whose discoveries between
// them select an attribute-table filter, a derived one and a numeric
// range.
var fuzzExampleSets = [][]string{
	{"Dan Suciu", "Sam Madden"},
	{"Sam Madden", "Joseph Hellerstein"},
	{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"},
	{"Paper A", "Paper D"},
	{"Paper B", "Paper F"},
}

// FuzzSnapshotDecode feeds Load bytes from outside the process. The
// contract: Load returns an error, or a system on which a discovery and
// an insert of each kind run — whatever they return, nothing panics. A
// flipped bit or a cut is an error: the CRC32 trailer covers every byte
// (TestSnapshotCorpusDamageFailsLoad), so each input is also loaded with
// its trailer recomputed, which a hand-edited file can carry. The
// committed corpus
// (testdata/fuzz/FuzzSnapshotDecode) is a valid v10 stream of fuzzDB, the
// same stream cut at ¼, ½, ¾ and one byte short, and with the low bit
// flipped at each of the eight offsets (2i+1)/16 of its length; the
// live streams of fuzzDB and fuzzWideDB are added as well, so the
// fuzzer starts from loadable inputs, with INTEGER columns of every
// offset width, even after the format moves past the corpus.
func FuzzSnapshotDecode(f *testing.F) {
	for _, db := range []*Database{fuzzDB(), fuzzWideDB()} {
		f.Add(savedBytes(f, db))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The bytes load as they are and resealed — the last four replaced
		// by the CRC32 of the rest, as a hand-edited file re-checksummed
		// would be — so what the trailer guards stays reachable.
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, reseal(data))
		}
		for _, in := range inputs {
			sys, err := Load(bytes.NewReader(in))
			if err != nil {
				continue
			}
			_, _ = sys.DiscoverContext(context.Background(), []string{"Dan Suciu", "Sam Madden"})
			for _, op := range []InsertOp{
				{Rel: "academics", Vals: []Value{IntVal(900), StringVal("Fuzz Researcher")}},
				{Rel: "research", Vals: []Value{IntVal(900), StringVal("fuzzing")}},
				{Rel: "wrote", Vals: []Value{IntVal(900), IntVal(3)}},
			} {
				_ = sys.InsertBatchContext(context.Background(), []InsertOp{op})
			}
			_, _ = sys.DiscoverContext(context.Background(), []string{"Fuzz Researcher", "Dan Suciu"})
		}
	})
}

// savedBytes is the snapshot of a system built over db.
func savedBytes(tb testing.TB, db *Database) []byte {
	tb.Helper()
	sys, err := Build(db, DefaultBuildConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// reseal replaces the last four bytes of a stream with the CRC32 of the
// rest, as a hand-edited file re-checksummed would carry.
func reseal(data []byte) []byte {
	n := len(data) - 4
	return binary.LittleEndian.AppendUint32(slices.Clone(data[:n]), crc32.ChecksumIEEE(data[:n]))
}

// TestLoadRejectsDamagedIntColumn: an INTEGER column's offset width
// outside {1, 2, 4, 8}, or its offset block cut short, is an error from
// Load, not a panic, even under a valid trailer.
func TestLoadRejectsDamagedIntColumn(t *testing.T) {
	data := savedBytes(t, fuzzWideDB())
	// The column "wide": its name, type INTEGER (0) and no NULL flags (a
	// count of 0), then its base and its width.
	at := bytes.Index(data, []byte("\x04wide\x00\x00"))
	if at < 0 {
		t.Fatal("no column wide in the stream")
	}
	_, n := binary.Varint(data[at+7:])
	widthAt := at + 7 + n
	if data[widthAt] != 8 {
		t.Fatalf("column wide is %d bytes wide, want 8", data[widthAt])
	}
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for _, width := range []byte{0, 3, 5, 16} {
		bad := slices.Clone(data)
		bad[widthAt] = width
		if _, err := Load(bytes.NewReader(reseal(bad))); err == nil {
			t.Errorf("width %d loaded", width)
		}
	}
	for _, cut := range []int{1, 8, 6*8 - 1} {
		if _, err := Load(bytes.NewReader(reseal(append(slices.Clone(data[:widthAt+cut]), 0, 0, 0, 0)))); err == nil {
			t.Errorf("the offsets cut at byte %d loaded", cut-1)
		}
	}
}

// TestSnapshotCorpusDamageFailsLoad holds the committed FuzzSnapshotDecode
// corpus to the trailer's contract: the valid stream loads, and every
// flip-* and cut-* entry is an error from Load.
func TestSnapshotCorpusDamageFailsLoad(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(arg, "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry", e.Name())
		}
		_, err = Load(strings.NewReader(data))
		switch {
		case e.Name() == "valid" && err != nil:
			t.Errorf("valid: %v", err)
		case strings.HasPrefix(e.Name(), "flip-") || strings.HasPrefix(e.Name(), "cut-"):
			damaged++
			if err == nil {
				t.Errorf("%s loaded", e.Name())
			}
		}
	}
	if damaged != 12 {
		t.Errorf("%d flip-* and cut-* entries, want 12", damaged)
	}
}
