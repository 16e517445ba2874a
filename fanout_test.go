package squid

import (
	"context"
	"regexp"
	"strconv"
	"testing"

	"squid/internal/datagen"
	"squid/internal/trace"
)

// TestFanOutCopiesPerCellChanged pins what publishing costs per
// association strength a batch changes when one row fans out. A genre
// added to a movie with 10,000 cast is a second hop for every one of
// them: it raises the movie:genre strength of each of the 10,000
// persons (and of the movie's companies), so the one-row batch changes
// 10,000 pairs of a pair list or adds them. An apply span reports the
// bytes its batch copied out of storage the base epoch shares
// (copied_bytes, the writer's Gen.Copied) and the strengths it raised
// (pairs_bumped). The pinned ratio is the copied bytes of the fan-out's
// publish and of the one after it, per strength raised: storage that
// defers its copy — a tail of appended rows — pays it when the next
// writer clones or folds it. The bound is about 10% above the 6.8 bytes
// a cell measured since a bump writes only the pair list and the
// histogram (40.8 with the derived relations' 4-byte count chunks, 56.9
// with the count patch they replaced, 2.1 of them in the fan-out's own
// publish).
func TestFanOutCopiesPerCellChanged(t *testing.T) {
	const movie, bound = 7, 7.5
	cfg := datagen.IMDbConfig{Seed: 3, NumPersons: 10_000, NumMovies: 400, NumCompany: 20}
	g := datagen.GenerateIMDb(cfg)
	for p := range cfg.NumPersons {
		g.DB.Relation("castinfo").MustAppend(IntVal(int64(p)), IntVal(movie), IntVal(0))
	}
	has := map[int64]bool{}
	mg := g.DB.Relation("movietogenre")
	for row := range mg.NumRows() {
		if mg.Get(row, "movie_id").Int() == movie {
			has[mg.Get(row, "genre_id").Int()] = true
		}
	}
	genre := int64(0)
	for has[genre] {
		genre++
	}
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	// publish inserts ops and returns what its apply span counted.
	publish := func(ops ...InsertOp) (copied, bumped int) {
		rec := trace.NewRecorder(0)
		root := rec.Root(trace.PhaseInsert, "")
		if err := sys.InsertBatchContext(trace.NewContext(context.Background(), root), ops); err != nil {
			t.Fatal(err)
		}
		root.End()
		m := regexp.MustCompile(`apply \{copied_bytes=(\d+) pairs_bumped=(\d+) rows=1\}`).FindStringSubmatch(rec.Finish("insert", "").Structure())
		if m == nil {
			t.Fatal("the insert has no apply span with copied_bytes and pairs_bumped")
		}
		copied, _ = strconv.Atoi(m[1])
		bumped, _ = strconv.Atoi(m[2])
		return copied, bumped
	}
	copied, bumped := publish(InsertOp{Rel: "movietogenre", Vals: []Value{IntVal(movie), IntVal(genre)}})
	if bumped < cfg.NumPersons {
		t.Fatalf("the genre raised %d strengths, want at least one for each of the %d cast", bumped, cfg.NumPersons)
	}
	next, _ := publish(InsertOp{Rel: "castinfo", Vals: []Value{IntVal(0), IntVal(movie + 1), IntVal(0)}})
	t.Logf("fan-out publish %d bytes, the next %d", copied, next)
	copied += next
	ratio := float64(copied) / float64(bumped)
	t.Logf("%d bytes copied for %d strengths raised: %.1f bytes a cell against a bound of %g", copied, bumped, ratio, bound)
	if ratio > bound {
		t.Errorf("the fan-out copied %.1f bytes a changed cell, over the bound of %g", ratio, bound)
	}
}
