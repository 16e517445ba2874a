package squid

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"sort"
	"testing"

	"squid/internal/iofault"
	"squid/internal/wal"
)

// walProbe is the fixed discovery whose Explain bytes fingerprint the
// αDB state: it covers filter selection, selectivity statistics, and
// the query output, so two states that differ anywhere the paper's
// pipeline can see render different fingerprints.
var walProbe = []string{"Dan Suciu", "Sam Madden", "Joseph Hellerstein"}

// walWorkload is the deterministic ingest script of the recovery
// tests: every batch is one InsertBatchContext call, hence one published
// epoch and one WAL record. Batches mix entity and fact rows
// (including facts referencing a same-batch entity) and shift the
// probe's "data management" cohort, so each prefix of the workload has
// a distinct fingerprint.
func walWorkload() [][]InsertOp {
	return [][]InsertOp{
		{{Rel: "academics", Vals: []Value{IntVal(106), StringVal("Grace Hopper")}}},
		{{Rel: "research", Vals: []Value{IntVal(106), StringVal("data management")}}},
		{
			{Rel: "academics", Vals: []Value{IntVal(107), StringVal("Barbara Liskov")}},
			{Rel: "research", Vals: []Value{IntVal(107), StringVal("data management")}},
			{Rel: "research", Vals: []Value{IntVal(107), StringVal("distributed systems")}},
		},
		{{Rel: "research", Vals: []Value{IntVal(100), StringVal("data management")}}},
		{
			{Rel: "academics", Vals: []Value{IntVal(108), StringVal("Alan Turing")}},
			{Rel: "research", Vals: []Value{IntVal(108), StringVal("algorithms")}},
		},
	}
}

func walFingerprint(t *testing.T, sys *System) string {
	t.Helper()
	disc, err := sys.DiscoverContext(context.Background(), walProbe)
	if err != nil {
		t.Fatalf("probe discovery: %v", err)
	}
	return disc.Explain()
}

// walReference runs the workload once on fs with the given policy and
// returns the per-prefix fingerprints: sigs[i] is the state after i
// batches (sigs[0] = the freshly built system).
func walReference(t *testing.T, fs *iofault.MemFS, policy wal.SyncPolicy) (sigs []string) {
	t.Helper()
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, res, err := wal.Open("wal", wal.Options{Policy: policy, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("fresh log replayed %d records", len(res.Records))
	}
	sys.AttachWAL(l)
	sigs = []string{walFingerprint(t, sys)}
	for i, batch := range walWorkload() {
		if err := sys.InsertBatchContext(context.Background(), batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		sigs = append(sigs, walFingerprint(t, sys))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return sigs
}

// walFrameEnds parses the log's frame boundaries from the wire format
// (8-byte header, then u32 length | u32 CRC | payload per record).
func walFrameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	if len(data) < 8 || string(data[:4]) != wal.Magic {
		t.Fatalf("not a WAL segment (%d bytes)", len(data))
	}
	ends := []int{8}
	off := 8
	for off < len(data) {
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 8 + plen
		ends = append(ends, off)
	}
	if off != len(data) {
		t.Fatalf("frame walk ends at %d, log is %d bytes", off, len(data))
	}
	return ends
}

// TestWALRecoveryMatrix is the fault-injection acceptance check of the
// write-ahead log: for every prefix of the log — every state a torn
// write can leave on disk — a reboot must recover to exactly the state
// after the batches whose records survived whole, with a discovery
// fingerprint byte-identical to the reference run's. Set
// SQUID_WAL_FULL_SWEEP=1 to cut at every byte offset instead of the
// boundary neighborhood.
func TestWALRecoveryMatrix(t *testing.T) {
	fs := iofault.NewMemFS()
	sigs := walReference(t, fs, wal.PolicyNever)
	logBytes, ok := fs.Bytes("wal")
	if !ok {
		t.Fatal("no log written")
	}

	var cuts []int
	if os.Getenv("SQUID_WAL_FULL_SWEEP") != "" {
		for m := 0; m <= len(logBytes); m++ {
			cuts = append(cuts, m)
		}
	} else {
		// Each frame boundary and its neighborhood: the cut landing
		// exactly on a boundary (clean), inside the next frame header,
		// and inside the next payload (torn).
		ends := walFrameEnds(t, logBytes)
		add := func(m int) {
			if m >= 0 && m <= len(logBytes) {
				cuts = append(cuts, m)
			}
		}
		add(0)
		add(3) // torn segment header
		for i, e := range ends {
			add(e)
			add(e - 3)
			add(e + 1)
			add(e + 5)
			if i+1 < len(ends) {
				add((e + ends[i+1]) / 2)
			}
		}
		sort.Ints(cuts)
	}

	for _, m := range cuts {
		fs2 := iofault.NewMemFS()
		fs2.SetFile("wal", logBytes[:m])
		sys2, err := Build(academicsDB(), DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		info, err := sys2.RecoverWAL("wal", wal.Options{Policy: wal.PolicyNever, FS: fs2})
		if err != nil {
			t.Fatalf("prefix %d/%d bytes: recovery failed: %v", m, len(logBytes), err)
		}
		if info.Replayed >= len(sigs) {
			t.Fatalf("prefix %d: replayed %d records, workload has %d batches",
				m, info.Replayed, len(sigs)-1)
		}
		if got := walFingerprint(t, sys2); got != sigs[info.Replayed] {
			t.Errorf("prefix %d bytes (%d records replayed): fingerprint diverges from reference:\n--- recovered ---\n%s\n--- reference ---\n%s",
				m, info.Replayed, got, sigs[info.Replayed])
		}
		if err := sys2.WAL().Close(); err != nil {
			t.Fatalf("prefix %d: closing recovered log: %v", m, err)
		}
	}
}

// TestWALAckedNeverLost is the fsync=always contract: sweep a power
// loss across every byte of the log's write stream; whatever the crash
// point, a reboot from the durable view must recover every batch that
// was acknowledged before the crash — and land on a state whose
// fingerprint matches the reference for however many records survived.
func TestWALAckedNeverLost(t *testing.T) {
	// Reference run (no faults) for fingerprints and the write-stream
	// length. The WAL is the only file on this MemFS, so TotalWritten
	// enumerates exactly the log's crash points.
	refFS := iofault.NewMemFS()
	sigs := walReference(t, refFS, wal.PolicyAlways)
	total := refFS.TotalWritten()
	if total == 0 {
		t.Fatal("reference run wrote nothing")
	}

	step := int64(1)
	if testing.Short() {
		step = total/64 + 1
	}
	for n := int64(0); n <= total; n += step {
		fs := iofault.NewMemFS()
		fs.CrashAfterBytes(n)
		acked := 0
		func() {
			sys, err := Build(academicsDB(), DefaultBuildConfig())
			if err != nil {
				t.Fatal(err)
			}
			l, _, err := wal.Open("wal", wal.Options{Policy: wal.PolicyAlways, FS: fs})
			if err != nil {
				return // crashed inside Open: nothing acknowledged
			}
			sys.AttachWAL(l)
			for _, batch := range walWorkload() {
				if err := sys.InsertBatchContext(context.Background(), batch); err != nil {
					return // not acknowledged
				}
				acked++
			}
		}()

		// Reboot from the power-loss view: only fsynced bytes survive.
		sys2, err := Build(academicsDB(), DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		info, err := sys2.RecoverWAL("wal", wal.Options{Policy: wal.PolicyNever, FS: fs.CloneDurable()})
		if err != nil {
			t.Fatalf("crash after %d/%d bytes: recovery failed: %v", n, total, err)
		}
		if info.Replayed < acked {
			t.Fatalf("crash after %d bytes: %d batches acknowledged, only %d recovered — acknowledged write lost",
				n, acked, info.Replayed)
		}
		if got := walFingerprint(t, sys2); got != sigs[info.Replayed] {
			t.Errorf("crash after %d bytes (%d replayed): fingerprint diverges from reference", n, info.Replayed)
		}
		sys2.WAL().Close()
	}
}

// TestWALSnapshotAnchor checks the checkpoint anchor: a snapshot taken
// mid-workload records its epoch sequence, and a boot from it replays
// only the records past that sequence — never double-applying rows the
// snapshot already holds.
func TestWALSnapshotAnchor(t *testing.T) {
	fs := iofault.NewMemFS()
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open("wal", wal.Options{Policy: wal.PolicyNever, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWAL(l)

	batches := walWorkload()
	const snapAfter = 2
	var snap bytes.Buffer
	for i, batch := range batches {
		if err := sys.InsertBatchContext(context.Background(), batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i+1 == snapAfter {
			if err := sys.Save(&snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := walFingerprint(t, sys)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	info, err := sys2.RecoverWAL("wal", wal.Options{Policy: wal.PolicyNever, FS: fs.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if wantReplay := len(batches) - snapAfter; info.Replayed != wantReplay {
		t.Errorf("replayed %d records, want %d (snapshot covers the first %d)",
			info.Replayed, wantReplay, snapAfter)
	}
	if got := walFingerprint(t, sys2); got != want {
		t.Errorf("snapshot+tail recovery diverges:\n--- recovered ---\n%s\n--- reference ---\n%s", got, want)
	}
}

// TestWALSingleRowInserts checks that one-row batches, an entity row
// and then a fact row, log and fence like any batch: one record per
// call, full round trip across a reboot.
func TestWALSingleRowInserts(t *testing.T) {
	fs := iofault.NewMemFS()
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open("wal", wal.Options{Policy: wal.PolicyAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWAL(l)
	for _, op := range []InsertOp{
		{Rel: "academics", Vals: []Value{IntVal(106), StringVal("Grace Hopper")}},
		{Rel: "research", Vals: []Value{IntVal(106), StringVal("data management")}},
	} {
		if err := sys.InsertBatchContext(context.Background(), []InsertOp{op}); err != nil {
			t.Fatal(err)
		}
	}
	want := walFingerprint(t, sys)
	if got := l.Metrics().Records; got != 2 {
		t.Errorf("logged %d records, want 2", got)
	}

	// Power loss (no Close): fsync=always means both inserts survive.
	sys2, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	info, err := sys2.RecoverWAL("wal", wal.Options{Policy: wal.PolicyNever, FS: fs.CloneDurable()})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2", info.Replayed)
	}
	if got := walFingerprint(t, sys2); got != want {
		t.Errorf("recovered fingerprint diverges:\n%s\nwant:\n%s", got, want)
	}
}

// TestWALSyncFailureRefusesAck checks the safe-by-refusal contract: a
// failing fsync under fsync=always must surface ErrWALSync to the
// writer (the rows are not durable) and poison the log against later
// acknowledgments.
func TestWALSyncFailureRefusesAck(t *testing.T) {
	fs := iofault.NewMemFS()
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open("wal", wal.Options{Policy: wal.PolicyAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWAL(l)
	fs.FailSyncs(1)
	err = sys.InsertBatchContext(context.Background(), []InsertOp{{Rel: "academics", Vals: []Value{IntVal(106), StringVal("Grace Hopper")}}})
	if !errors.Is(err, ErrWALSync) {
		t.Fatalf("insert with failing fsync = %v, want ErrWALSync", err)
	}
	// Poisoned: the next insert refuses too, even though fsync works
	// again — durability of the earlier rows is still unproven.
	if err := sys.InsertBatchContext(context.Background(), []InsertOp{{Rel: "academics", Vals: []Value{IntVal(107), StringVal("Barbara Liskov")}}}); !errors.Is(err, ErrWALSync) {
		t.Fatalf("insert after poison = %v, want ErrWALSync", err)
	}
	if !l.Metrics().Failed {
		t.Error("log not marked failed")
	}
}

// walSegment returns the live segment a WAL attached to a fresh fuzzDB
// system holds after the walWorkload batches: what Append writes.
func walSegment(tb testing.TB) []byte {
	tb.Helper()
	sys, err := Build(fuzzDB(), DefaultBuildConfig())
	if err != nil {
		tb.Fatal(err)
	}
	fs := iofault.NewMemFS()
	l, _, err := wal.Open("wal", wal.Options{Policy: wal.PolicyNever, FS: fs})
	if err != nil {
		tb.Fatal(err)
	}
	sys.AttachWAL(l)
	for i, batch := range walWorkload() {
		if err := sys.InsertBatchContext(context.Background(), batch); err != nil {
			tb.Fatalf("batch %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	seg, _ := fs.Bytes("wal")
	return seg
}

// FuzzWALRecover feeds WAL recovery a live segment from outside the
// process. wal.Open returns an error, or records whose sequence numbers
// strictly increase and a segment cut to the valid prefix of the input:
// its length plus TruncatedBytes is the input's length, except that an
// input without a whole header leaves a fresh one. RecoverWAL of the
// same bytes onto a fuzzDB system returns an error or succeeds; nothing
// panics. The committed corpus (testdata/fuzz/FuzzWALRecover) is the
// walSegment, the same segment cut in half and with one bit flipped; the
// live segment is added as well, so the fuzzer starts from a valid log
// even after the format moves past the corpus.
func FuzzWALRecover(f *testing.F) {
	f.Add(walSegment(f))
	empty := iofault.NewMemFS()
	l, _, err := wal.Open("wal", wal.Options{Policy: wal.PolicyNever, FS: empty})
	if err != nil {
		f.Fatal(err)
	}
	l.Close()
	fresh, _ := empty.Bytes("wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := iofault.NewMemFS()
		fs.SetFile("wal", data)
		if l, res, err := wal.Open("wal", wal.Options{Policy: wal.PolicyNever, FS: fs}); err == nil {
			l.Close()
			for i := 1; i < len(res.Records); i++ {
				if res.Records[i].Seq <= res.Records[i-1].Seq {
					t.Fatalf("record %d has seq %d after %d", i, res.Records[i].Seq, res.Records[i-1].Seq)
				}
			}
			seg, _ := fs.Bytes("wal")
			kept := int64(len(data)) - res.TruncatedBytes
			if kept == 0 && !bytes.Equal(seg, fresh) {
				t.Fatalf("nothing of %d bytes kept, yet the segment is not a fresh header: %q", len(data), seg)
			}
			if kept != 0 && (int64(len(seg)) != kept || !bytes.Equal(seg, data[:kept])) {
				t.Fatalf("%d bytes in, %d truncated, but the segment holds %d bytes that are not the input's prefix", len(data), res.TruncatedBytes, len(seg))
			}
		}
		sys, err := Build(fuzzDB(), DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		replay := iofault.NewMemFS()
		replay.SetFile("wal", data)
		if _, err := sys.RecoverWAL("wal", wal.Options{Policy: wal.PolicyNever, FS: replay}); err == nil {
			sys.WAL().Close()
		}
	})
}
