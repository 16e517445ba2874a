package squid

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
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
// (testdata/fuzz/FuzzSnapshotDecode) is a valid v8 stream of fuzzDB, the
// same stream cut at ¼, ½, ¾ and one byte short, and with the low bit
// flipped at each of the eight offsets (2i+1)/16 of its length; the
// live stream is added as well, so the fuzzer starts from a loadable
// input even after the format moves past the corpus.
func FuzzSnapshotDecode(f *testing.F) {
	sys, err := Build(fuzzDB(), DefaultBuildConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		// The bytes load as they are and resealed — the last four replaced
		// by the CRC32 of the rest, as a hand-edited file re-checksummed
		// would be — so what the trailer guards stays reachable.
		inputs := [][]byte{data}
		if n := len(data) - 4; n >= 0 {
			inputs = append(inputs, binary.LittleEndian.AppendUint32(slices.Clone(data[:n]), crc32.ChecksumIEEE(data[:n])))
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
