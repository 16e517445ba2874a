package squid

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"testing"

	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/index"
	"squid/internal/iofault"
	"squid/internal/metrics"
	"squid/internal/relation"
	"squid/internal/trace"
	"squid/internal/wal"
)

// randomIngest publishes a seeded random sequence of mixed entity/fact
// batches over the IMDb schema and returns the number of rows inserted.
// It draws from every fact and entity relation, on generator rows, on
// rows of earlier publishes and on rows inserted earlier in their own
// batch, and on purpose draws what a maintained αDB can get wrong:
// repeated (person, movie) pairs; facts before their entity, in one
// batch and across batches; genres, countries, keywords and awards for
// entities that already have a cast; casts on movies that already have
// a company and company links to movies that already have a cast.
// after, when set, runs after each publish k.
func randomIngest(t *testing.T, sys *System, rng *rand.Rand, publishes int, after func(k int)) int {
	t.Helper()
	db := sys.AlphaDB().DB()
	pick := func(xs []int64) Value { return IntVal(xs[rng.Intn(len(xs))]) }
	ids := func(rel string) []int64 {
		c := db.Relation(rel).Column("id")
		out := make([]int64, c.Len())
		for i := range out {
			out[i] = c.Int64(i)
		}
		return out
	}
	persons, movies, companies := ids("person"), ids("movie"), ids("company")
	dims := map[string][]int64{}
	for _, d := range []string{"country", "language", "genre", "keyword", "role", "award"} {
		dims[d] = ids(d)
	}
	dim := func(rel string) Value { return pick(dims[rel]) }
	var cast [][2]int64
	// pending holds entities whose ids facts may name before the entity
	// row lands, in a later batch.
	var pending []InsertOp
	certificates := []string{"G", "PG", "R"}
	nextID := int64(1_000_000)
	rows := 0
	for k := 0; k < publishes; k++ {
		var ops []InsertOp
		add := func(rel string, vals ...Value) { ops = append(ops, InsertOp{Rel: rel, Vals: vals}) }
		castRow := func(p, m int64) {
			cast = append(cast, [2]int64{p, m})
			add("castinfo", IntVal(p), IntVal(m), dim("role"))
		}
		// newEntity reserves an id; its row lands now, after the facts
		// drawn next in this batch, or in a later batch.
		newEntity := func(op InsertOp, facts func(id int64)) {
			id := op.Vals[0].Int()
			facts(id)
			if rng.Intn(2) == 0 {
				ops = append(ops, op)
			} else {
				pending = append(pending, op)
			}
		}
		for n := 8 + rng.Intn(24); len(ops) < n; {
			switch op := rng.Intn(12); {
			case op == 0:
				nextID++
				gender := []string{"Male", "Female"}[rng.Intn(2)]
				newEntity(InsertOp{Rel: "person", Vals: []Value{IntVal(nextID), StringVal(fmt.Sprintf("Threeway Person %d", nextID)),
					StringVal(gender), IntVal(int64(1925 + rng.Intn(90))), dim("country")}}, func(id int64) {
					for i := rng.Intn(3); i > 0; i-- {
						add("persontoaward", IntVal(id), dim("award"))
					}
					for i := rng.Intn(3); i > 0; i-- {
						castRow(id, movies[rng.Intn(len(movies))])
					}
				})
				persons = append(persons, nextID)
			case op == 1:
				nextID++
				year := 1950 + rng.Intn(70)
				newEntity(InsertOp{Rel: "movie", Vals: []Value{IntVal(nextID), StringVal(fmt.Sprintf("Threeway Movie %d", nextID)),
					IntVal(int64(year)), StringVal(fmt.Sprintf("%ds", year/10*10)),
					StringVal(certificates[rng.Intn(len(certificates))]), dim("language")}}, func(id int64) {
					for i := 1 + rng.Intn(3); i > 0; i-- {
						add("movietogenre", IntVal(id), dim("genre"))
					}
					if rng.Intn(2) == 0 {
						add("movietocompany", IntVal(id), pick(companies))
					}
					for i := rng.Intn(3); i > 0; i-- {
						castRow(persons[rng.Intn(len(persons))], id)
					}
				})
				movies = append(movies, nextID)
			case op == 2:
				nextID++
				newEntity(InsertOp{Rel: "company", Vals: []Value{IntVal(nextID), StringVal(fmt.Sprintf("Threeway Company %d", nextID%4)),
					dim("country")}}, func(id int64) {
					add("movietocompany", pick(movies), IntVal(id))
				})
				companies = append(companies, nextID)
			case op == 3 && len(pending) > 0:
				i := rng.Intn(len(pending))
				ops = append(ops, pending[i])
				pending = append(pending[:i], pending[i+1:]...)
			case op == 4:
				rel := []string{"movietogenre", "movietocountry", "movietokeyword"}[rng.Intn(3)]
				add(rel, pick(movies), dim(rel[len("movieto"):]))
			case op == 5:
				add("persontoaward", pick(persons), dim("award"))
			case op == 6:
				add("movietocompany", pick(movies), pick(companies))
			case op == 7 && len(cast) > 0:
				pair := cast[rng.Intn(len(cast))]
				castRow(pair[0], pair[1])
			default:
				castRow(persons[rng.Intn(len(persons))], movies[rng.Intn(len(movies))])
			}
		}
		if err := sys.InsertBatchContext(context.Background(), ops); err != nil {
			t.Fatalf("publish %d: %v", k, err)
		}
		rows += len(ops)
		if after != nil {
			after(k)
		}
	}
	return rows
}

// addLabels adds to db a component no IMDb relation reaches — a label
// entity and its artists, an attribute table — for a second writer to
// insert into beside the IMDb one.
func addLabels(db *relation.Database) {
	label := relation.New("label",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("region", relation.String),
	).SetPrimaryKey("id")
	artists := relation.New("labeltoartist",
		relation.Col("label_id", relation.Int),
		relation.Col("artist", relation.String),
	).AddForeignKey("label_id", "label", "id")
	for i := int64(0); i < 8; i++ {
		label.MustAppend(IntVal(i), StringVal(fmt.Sprintf("Label %d", i)), StringVal([]string{"North", "South", "East"}[i%3]))
		artists.MustAppend(IntVal(i), StringVal(fmt.Sprintf("Artist %d", i%5)))
	}
	db.AddRelation(label)
	db.MarkEntity("label")
	db.AddRelation(artists)
}

// publishedSeq inserts ops as one batch and returns the sequence number
// of the epoch it published, read off the batch's publish span.
func publishedSeq(sys *System, ops []InsertOp) (uint64, error) {
	rec := trace.NewRecorder(0)
	root := rec.Root(trace.PhaseInsert, "")
	err := sys.InsertBatchContext(trace.NewContext(context.Background(), root), ops)
	root.End()
	for _, sp := range rec.Finish("insert", "").Spans {
		if sp.Phase == trace.PhasePublish {
			return uint64(sp.Counters[trace.CounterEpochSeq.String()]), err
		}
	}
	return 0, err
}

// labelIngest publishes label batches beside another writer that starts
// after seq0, until a label publish lies strictly between two of the
// other writer's publishes, so the log interleaves the two writers. It
// closes followed at its first publish after one of the other writer's,
// and stops once a later publish of the other writer lies between, or
// fails if done is closed (the other writer finished) before one does.
// An artist may name a label whose row lands later in its batch or in a
// later one.
func labelIngest(sys *System, rng *rand.Rand, seq0 uint64, followed chan<- struct{}, done <-chan struct{}) error {
	next := int64(100)
	// before is how many of the other writer's publishes preceded the
	// first label publish that followed one of them (0 until then).
	var before uint64
	defer func() {
		if before == 0 { // failed first: release the other writer
			close(followed)
		}
	}()
	for labels := uint64(0); ; labels++ {
		select {
		case <-done:
			if others := sys.AlphaDB().EpochStats().Seq - seq0 - labels; before == 0 || others == before {
				return fmt.Errorf("no label publish between two others in %d label publishes", labels)
			}
			return nil
		default:
		}
		var ops []InsertOp
		artist := func(id int64) {
			ops = append(ops, InsertOp{Rel: "labeltoartist", Vals: []Value{IntVal(id), StringVal(fmt.Sprintf("Artist %d", rng.Intn(7)))}})
		}
		switch rng.Intn(3) {
		case 0:
			artist(next + 1) // the label lands in the next batch
			next++
			ops = append(ops, InsertOp{Rel: "label", Vals: []Value{IntVal(next - 1), StringVal(fmt.Sprintf("Label %d", next%4)), StringVal("West")}})
		case 1:
			artist(next - 1)
		default:
			artist(int64(rng.Intn(int(next))))
		}
		seq, err := publishedSeq(sys, ops)
		if err != nil {
			return err
		}
		switch others := seq - seq0 - labels - 1; {
		case before == 0 && others > 0:
			before = others
			close(followed)
		case before > 0 && others > before:
			return nil
		}
	}
}

// compareAlphaDBs asserts two αDBs over the same rows answer every
// property question identically: every entity's value codes of every
// categorical property, in order and with repeats, each in its posting
// lists (checkCategoricalCodes); selectivities,
// domain coverage and satisfying-row sets of every basic and derived
// property; every derived relation's (entity_id, value, count) rows in
// order (a view lists them in the cold build's order, after inserts
// too); and what entity lookup finds for every TEXT value: the columns
// that hold it and their rows.
func compareAlphaDBs(t *testing.T, label string, got, want *adb.AlphaDB, rng *rand.Rand) {
	t.Helper()
	for _, name := range want.DB().RelationNames() {
		for _, col := range want.DB().Relation(name).Columns() {
			if col.Type != relation.String {
				continue
			}
			for _, v := range col.Dict().Values() {
				g, w := got.Snapshot().CommonColumns([]string{v}), want.Snapshot().CommonColumns([]string{v})
				if !reflect.DeepEqual(g, w) {
					t.Errorf("%s: lookup of %q finds %v want %v", label, v, g, w)
				}
			}
		}
	}
	derivedRows := func(a *adb.AlphaDB, p *adb.DerivedProperty) []string {
		rel := derivedView(a, p)
		ids, vals, counts := rel.Column("entity_id"), rel.Column("value"), rel.Column("count")
		out := make([]string, rel.NumRows())
		for r := range out {
			out[r] = fmt.Sprintf("%d|%s|%d", ids.Int64(r), vals.Str(r), counts.Int64(r))
		}
		return out
	}
	checkCategoricalCodes(t, label, got.Snapshot(), want.Snapshot())
	for name, w := range want.Snapshot().Entities {
		g := got.Entity(name)
		if g == nil || g.NumRows != w.NumRows || len(g.Basic) != len(w.Basic) || len(g.Derived) != len(w.Derived) {
			t.Fatalf("%s: entity %s shape diverged", label, name)
		}
		for i, wp := range w.Basic {
			gp := g.Basic[i]
			at := fmt.Sprintf("%s: %s.%s", label, name, wp.Attr)
			if gp.Attr != wp.Attr || gp.Kind != wp.Kind {
				t.Fatalf("%s: property order diverged (%s)", at, gp.Attr)
			}
			if wp.Kind == adb.Categorical {
				values := wp.DistinctValues()
				if !reflect.DeepEqual(gp.DistinctValues(), values) {
					t.Errorf("%s: domains diverged", at)
					continue
				}
				if gp.CategoricalDomainCoverage(1) != wp.CategoricalDomainCoverage(1) {
					t.Errorf("%s: domain coverage diverged", at)
				}
				for _, v := range values {
					if gs, ws := gp.SelectivityOfCode(codesOf(gp.LookupCode, v)[0]), wp.SelectivityOfCode(codesOf(wp.LookupCode, v)[0]); gs != ws {
						t.Errorf("%s: ψ(%s) = %v want %v", at, v, gs, ws)
					}
					pair := []string{v, values[rng.Intn(len(values))]}
					if !reflect.DeepEqual(gp.EntityRowSetWithAnyCode(codesOf(gp.LookupCode, pair...), trace.Span{}, true).ToSorted(), wp.EntityRowSetWithAnyCode(codesOf(wp.LookupCode, pair...), trace.Span{}, true).ToSorted()) {
						t.Errorf("%s: rows of %q diverged", at, pair)
					}
				}
				continue
			}
			glo, ghi, gn := gp.NumRange()
			wlo, whi, wn := wp.NumRange()
			if gn != wn || glo != wlo || ghi != whi {
				t.Errorf("%s: numeric order len/min/max %d/%v/%v want %d/%v/%v", at, gn, glo, ghi, wn, wlo, whi)
				continue
			}
			span := whi - wlo
			for trial := 0; trial < 12; trial++ {
				// Full range first, then narrow and wide sub-ranges.
				lo, hi := wlo, whi
				if trial > 0 {
					lo += float64(rng.Intn(int(span) + 1))
					hi = lo + float64(rng.Intn(int(span)+1))/float64(1+trial%3)
				}
				if gp.RangeSelectivity(lo, hi) != wp.RangeSelectivity(lo, hi) || gp.DomainCoverage(lo, hi) != wp.DomainCoverage(lo, hi) {
					t.Errorf("%s: ψ/coverage of [%v,%v] diverged", at, lo, hi)
				}
				if !reflect.DeepEqual(gp.EntityRowSetInRange(lo, hi, trace.Span{}, true).ToSorted(), wp.EntityRowSetInRange(lo, hi, trace.Span{}, true).ToSorted()) {
					t.Errorf("%s: rows of [%v,%v] diverged", at, lo, hi)
				}
			}
		}
		for i, wp := range w.Derived {
			gp := g.Derived[i]
			at := fmt.Sprintf("%s: %s.%s", label, name, wp.Attr)
			if gp.Attr != wp.Attr || !reflect.DeepEqual(gp.DistinctValues(), wp.DistinctValues()) {
				t.Errorf("%s: derived domains diverged", at)
				continue
			}
			if gr, wr := derivedRows(got, gp), derivedRows(want, wp); !slices.Equal(gr, wr) {
				t.Errorf("%s: derived rows diverged: %d rows want %d", at, len(gr), len(wr))
			}
			for _, v := range wp.DistinctValues() {
				// Every θ up to one past the largest strength: ψ reads 0 there.
				gc, wc := codesOf(gp.LookupCode, v)[0], codesOf(wp.LookupCode, v)[0]
				for theta, ws := 1, 1.0; ws > 0; theta++ {
					var gs float64
					if gs, ws = gp.SelectivityOfCode(gc, theta), wp.SelectivityOfCode(wc, theta); gs != ws {
						t.Errorf("%s: ψ(%s,%d) = %v want %v", at, v, theta, gs, ws)
						break
					}
					if !reflect.DeepEqual(gp.EntityRowSetWithStrength(gc, theta, trace.Span{}, true).ToSorted(), wp.EntityRowSetWithStrength(wc, theta, trace.Span{}, true).ToSorted()) {
						t.Errorf("%s: rows of (%s,%d) diverged", at, v, theta)
					}
				}
			}
		}
	}
}

// codesOf looks values up in a property's dictionary (its LookupCode),
// NoCode for a value it lacks.
func codesOf(lookup func(string) (int32, bool), values ...string) []int32 {
	codes := make([]int32, len(values))
	for i, v := range values {
		code, ok := lookup(v)
		if !ok {
			code = relation.NoCode
		}
		codes[i] = code
	}
	return codes
}

// derivedView builds every row of p's derived relation, the view over
// its pair lists in a's current epoch.
func derivedView(a *adb.AlphaDB, p *adb.DerivedProperty) *Relation {
	return a.Snapshot().CombinedDB().View(p.RelName).Rows(nil)
}

// checkDerivedCells holds every derived relation of got to want's cell
// for cell — entity id, value and strength of every row, in row order —
// and every value's pair list and strength histogram. A view lists its
// rows in the cold build's order, so after inserts and across a reload
// too.
func checkDerivedCells(t *testing.T, label string, got, want *adb.AlphaDB) {
	t.Helper()
	for name, w := range want.Snapshot().Entities {
		g := got.Entity(name)
		if g == nil || len(g.Derived) != len(w.Derived) {
			t.Fatalf("%s: entity %s shape diverged", label, name)
		}
		for i, wp := range w.Derived {
			gp := g.Derived[i]
			at := fmt.Sprintf("%s: %s.%s", label, name, wp.Attr)
			gr, wr := derivedView(got, gp), derivedView(want, wp)
			if gp.RelName != wp.RelName || gr.NumRows() != wr.NumRows() {
				t.Errorf("%s: relation %s of %d rows, want %s of %d", at, gp.RelName, gr.NumRows(), wp.RelName, wr.NumRows())
				continue
			}
			gi, wi, gv, wv := gr.Column("entity_id"), wr.Column("entity_id"), gr.Column("value"), wr.Column("value")
			gc, wc := gr.Column("count"), wr.Column("count")
			for r := range wr.NumRows() {
				if gi.Int64(r) != wi.Int64(r) || gv.Str(r) != wv.Str(r) || gc.Int64(r) != wc.Int64(r) {
					t.Errorf("%s: row %d is (%d, %s, %d) want (%d, %s, %d)", at, r,
						gi.Int64(r), gv.Str(r), gc.Int64(r), wi.Int64(r), wv.Str(r), wc.Int64(r))
					break
				}
			}
			for _, v := range wp.DistinctValues() {
				gc, wc := codesOf(gp.LookupCode, v)[0], codesOf(wp.LookupCode, v)[0]
				for theta, ws := 1, 1.0; ws > 0; theta++ {
					var gs float64
					if gs, ws = gp.SelectivityOfCode(gc, theta), wp.SelectivityOfCode(wc, theta); gs != ws {
						t.Errorf("%s: ψ(%s,%d) = %v want %v", at, v, theta, gs, ws)
						break
					}
				}
			}
		}
	}
}

// checkStrengthHistograms pins the O(1) strength histogram of every
// derived property through its public answers: for every value,
// ψ(φ⟨Attr,v,θ⟩)·|R| must equal a brute-force count over the value's
// (entity, strength) pairs for every θ up to one past the largest
// strength among the pairs, where it reads 0.
func checkStrengthHistograms(t *testing.T, label string, a *adb.AlphaDB) {
	t.Helper()
	for name, info := range a.Snapshot().Entities {
		for _, p := range info.Derived {
			for _, v := range p.DistinctValues() {
				code, _ := p.LookupCode(v)
				entries := a.Snapshot().CombinedDB().View(p.RelName).Rows([]int32{code}).Column("count")
				maxStrength := 0
				for r := range entries.Len() {
					maxStrength = max(maxStrength, int(entries.Int64(r)))
				}
				for theta := 1; theta <= maxStrength+1; theta++ {
					n := 0
					for r := range entries.Len() {
						if int(entries.Int64(r)) >= theta {
							n++
						}
					}
					if want := float64(n) / float64(p.NumEntities()); p.SelectivityOfCode(code, theta) != want {
						t.Errorf("%s: %s.%s: ψ(%s,%d) = %v, the pairs say %v", label, name, p.Attr, v, theta, p.SelectivityOfCode(code, theta), want)
					}
				}
			}
		}
	}
}

// TestRandomIngestThreeWay is the four-roads-to-one-αDB oracle: after
// a seeded random sequence of mixed insert batches, with a writer of
// another component publishing between its batches, the incrementally
// maintained epochs, a cold Build of
// the final database, a Save/Load round trip and a replay of the
// write-ahead log onto the pre-ingest snapshot must agree on every
// property statistic and row set, and must explain every benchmark
// intent byte-identically. The small arm stays inside one chunk of
// every vector and never folds an index tail; the large arm is sized
// past the copy-on-write units of internal/index (256-element chunks; a
// hash tail folds past max(64, base/8) keys): three chunks of person
// rows, derived pair lists of several chunks that take mid-list inserts
// (a split), and enough castinfo publishes to fold the derived
// relations' entity-id indexes more than twice. Both arms insert ids
// past a million into id columns laid out two bytes wide, so inserts
// relay INTEGER columns at a wider width; each arm counts the columns a
// publish widened and fails if none did.
func TestRandomIngestThreeWay(t *testing.T) {
	t.Run("small", func(t *testing.T) {
		threeWay(t, datagen.IMDbConfig{Seed: 11, NumPersons: 300, NumMovies: 150, NumCompany: 10}, 12)
	})
	t.Run("past chunk and fold boundaries", func(t *testing.T) {
		threeWay(t, datagen.IMDbConfig{Seed: 11, NumPersons: 800, NumMovies: 400, NumCompany: 20}, 60)
	})
}

func threeWay(t *testing.T, cfg datagen.IMDbConfig, publishes int) {
	g := datagen.GenerateIMDb(cfg)
	addLabels(g.DB)
	sys, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if err := sys.Save(&base); err != nil {
		t.Fatal(err)
	}
	fs := iofault.NewMemFS()
	l, _, err := wal.Open("wal", wal.Options{Policy: wal.PolicyNever, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachWAL(l)

	// The IMDb writer waits after its first publish until a label publish
	// follows it, so one lands before its second even on one CPU.
	followed, done, labelErr := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	seq0 := sys.AlphaDB().EpochStats().Seq
	go func() { labelErr <- labelIngest(sys, rand.New(rand.NewSource(7)), seq0, followed, done) }()
	rng := rand.New(rand.NewSource(20190625))
	widths, relayouts := intWidths(sys.AlphaDB().DB()), 0
	rows := randomIngest(t, sys, rng, publishes, func(k int) {
		if k == 0 {
			<-followed
		}
		// Every publish's paths walk what a cold build of its rows folds.
		ep := sys.AlphaDB().Snapshot()
		// A relay only widens, and a clone keeps its width: a column wider
		// than at the last publish was relaid since.
		now := intWidths(ep.DB)
		for col, w := range now {
			if w > widths[col] {
				relayouts++
			}
		}
		widths = now
		cold, err := Build(ep.DB, DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkCategoricalCodes(t, fmt.Sprintf("publish %d vs cold build", k), ep, cold.AlphaDB().Snapshot())
	})
	close(done)
	if err := <-labelErr; err != nil {
		t.Fatal(err)
	}
	if rows < 200 {
		t.Fatalf("sequence too small: %d rows", rows)
	}
	t.Logf("%d rows inserted, %d INTEGER columns relaid wider", rows, relayouts)
	if relayouts == 0 {
		t.Fatal("no insert relaid an INTEGER column")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	cold, err := Build(sys.AlphaDB().DB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Load(&base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replayed.RecoverWAL("wal", wal.Options{Policy: wal.PolicyNever, FS: fs}); err != nil {
		t.Fatal(err)
	}
	roads := []struct {
		name string
		sys  *System
	}{{"incremental", sys}, {"round trip", loaded}, {"wal replay", replayed}}
	for _, road := range roads {
		compareAlphaDBs(t, road.name+" vs cold build", road.sys.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
		checkStrengthHistograms(t, road.name, road.sys.AlphaDB())
	}
	checkStrengthHistograms(t, "cold build", cold.AlphaDB())
	checkDerivedCells(t, "round trip", loaded.AlphaDB(), cold.AlphaDB())

	// explain discovers on one road and holds the executed plan to the
	// discovery's output: the reduce stage answers the plan from the
	// road's memos, which every insert cloned empty for the properties
	// it shifted.
	explain := func(road string, s *System, examples []string) string {
		d, err := s.DiscoverContext(context.Background(), examples)
		if err != nil {
			return err.Error()
		}
		checkExecutedPlan(t, fmt.Sprintf("%s, %v", road, examples), s, d)
		return d.Explain() + fmt.Sprint(d.Output)
	}
	intents := 0
	for _, b := range benchqueries.IMDbBenchmarks(g) {
		truth, err := benchqueries.GroundTruth(cold.AlphaDB().DB(), b)
		if err != nil {
			t.Fatal(err)
		}
		if len(truth) < 5 {
			continue
		}
		intents++
		examples := metrics.Sample(rng, truth, 5)
		want := explain("cold build", cold, examples)
		for _, road := range roads {
			if got := explain(road.name, road.sys, examples); got != want {
				t.Errorf("%s: %s explains differently from a cold build:\n%s\n--- cold ---\n%s", b.ID, road.name, got, want)
			}
		}
	}
	if intents < 8 {
		t.Fatalf("only %d benchmark intents had enough ground truth", intents)
	}
}

// intWidths maps each INTEGER column of db, as "relation.column", to
// the bytes of its offsets.
func intWidths(db *relation.Database) map[string]int {
	out := map[string]int{}
	for _, name := range db.RelationNames() {
		for _, c := range db.Relation(name).Columns() {
			if c.Type == relation.Int {
				out[name+"."+c.Name] = c.Width()
			}
		}
	}
	return out
}

// checkCategoricalCodes holds every categorical property of got to
// want's, row by row — the codes its path walks, in order with repeats —
// and to got's own posting lists: a row's distinct codes are exactly the
// codes whose list holds the row.
func checkCategoricalCodes(t *testing.T, label string, got, want *adb.Epoch) {
	t.Helper()
	var gc, wc []int32
	for name, w := range want.Entities {
		g := got.Entity(name)
		if g == nil || g.NumRows != w.NumRows || len(g.Basic) != len(w.Basic) {
			t.Fatalf("%s: entity %s shape diverged", label, name)
		}
		for i, wp := range w.Basic {
			gp := g.Basic[i]
			if wp.Kind != adb.Categorical || gp.Attr != wp.Attr {
				continue
			}
			at := fmt.Sprintf("%s: %s.%s", label, name, wp.Attr)
			members, posts := 0, gp.Postings()
			for row := range w.NumRows {
				gc, wc = gp.AppendValueCodes(gc[:0], row), wp.AppendValueCodes(wc[:0], row)
				if !slices.Equal(gc, wc) {
					t.Errorf("%s: row %d holds codes %v want %v", at, row, gc, wc)
					break
				}
				for j, c := range gc {
					if slices.Contains(gc[:j], c) {
						continue
					}
					members++
					if !posts.Contains(int(c), uint32(row)) {
						t.Errorf("%s: row %d holds code %d, whose posting list lacks the row", at, row, c)
					}
				}
			}
			for code := range posts.Len() {
				members -= posts.Count(code)
			}
			if members != 0 {
				t.Errorf("%s: the posting lists hold %d rows more than the rows' codes name", at, -members)
			}
		}
	}
}

// checkExecutedPlan holds the executed plan of d to d.Output as sets,
// the way the benchmark's plan check does. An INTERSECT branch meets its
// block on the entity's rows, as the printed SQL's aliases of one entity
// row do, so a value two entities share comes out only if one entity
// satisfies every filter.
func checkExecutedPlan(t *testing.T, label string, s *System, d *Discovery) {
	t.Helper()
	res, err := s.ExecuteContext(context.Background(), d.Plan())
	if err != nil {
		t.Errorf("%s: executing the plan: %v", label, err)
		return
	}
	got, want := map[string]bool{}, map[string]bool{}
	for _, v := range res.Strings() {
		got[v] = true
	}
	for _, v := range d.Output {
		if !got[v] && !want[v] {
			t.Errorf("%s: the executed plan misses %q of Output", label, v)
		}
		want[v] = true
	}
	for v := range got {
		if !want[v] {
			t.Errorf("%s: the executed plan returned %q, which Output lacks", label, v)
		}
	}
}

// TestIngestRepros pins three one-row inserts on which incremental
// maintenance disagreed with a cold Build. In IMDb seed 11 at 300
// persons, person 537 appears in 20 movies, movie 7 among them, and
// movie 7 belongs to company 0, whose movie:role strengths sum to 1022.
// The row castinfo(537, 7, role 0) is a second hop for company 0 (the
// strength sum becomes 1023; maintenance that followed only first hops
// left 1022) and a repeated pair for person 537 (movie:count stays 20;
// counting fact rows instead of pairs read 21). Inserted before its
// person's row, in one batch, a cast of a new person must still count
// (movie:count 1, not 0). The insert's apply span counts the strengths
// it raised (pairs_bumped): the shared row raises one, company 0's
// second hop, as the repeated pair raises none. It also counts the bytes
// the batch copied out of storage the base epoch shares (copied_bytes),
// which a batch that clones the castinfo indexes cannot leave at 0.
func TestIngestRepros(t *testing.T) {
	cast := InsertOp{Rel: "castinfo", Vals: []Value{IntVal(537), IntVal(7), IntVal(0)}}
	cases := []struct {
		name         string
		ops          []InsertOp
		entity, attr string
		id           int64
		before, want int
		bumped       int // the strengths the batch raised
	}{
		{"second hop", []InsertOp{cast}, "company", "movie:role", 0, 1022, 1023, 1},
		{"repeated pair", []InsertOp{cast}, "person", "movie:count", 537, 20, 20, 1},
		{"fact before its entity", []InsertOp{
			{Rel: "castinfo", Vals: []Value{IntVal(9000), IntVal(7), IntVal(0)}},
			{Rel: "person", Vals: []Value{IntVal(9000), StringVal("Late Arrival"), StringVal("Female"), IntVal(1980), IntVal(0)}},
		}, "person", "movie:count", 9000, 0, 1, 15},
	}
	strength := func(s *System, c int) (n int) {
		info := s.AlphaDB().Entity(cases[c].entity)
		row, ok := info.RowByID(cases[c].id)
		if !ok {
			return 0
		}
		counts, _ := info.DerivedByAttr(cases[c].attr).AppendCounts(nil, nil, row)
		for _, cc := range counts {
			n += cc.Count
		}
		return n
	}
	for c, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 11, NumPersons: 300, NumMovies: 150, NumCompany: 10})
			sys, err := Build(g.DB, DefaultBuildConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got := strength(sys, c); got != tc.before {
				t.Fatalf("before the insert the strength is %d, want %d", got, tc.before)
			}
			rec := trace.NewRecorder(0)
			root := rec.Root(trace.PhaseInsert, "")
			if err := sys.InsertBatchContext(trace.NewContext(context.Background(), root), tc.ops); err != nil {
				t.Fatal(err)
			}
			root.End()
			apply := regexp.MustCompile(fmt.Sprintf(`apply \{copied_bytes=(\d+) pairs_bumped=%d rows=%d\}`, tc.bumped, len(tc.ops)))
			if m := apply.FindStringSubmatch(rec.Finish("insert", "").Structure()); m == nil || m[1] == "0" {
				t.Errorf("the insert's apply span is not %q with copied_bytes > 0: %v", apply, m)
			}
			cold, err := Build(sys.AlphaDB().DB(), DefaultBuildConfig())
			if err != nil {
				t.Fatal(err)
			}
			if got, cg := strength(sys, c), strength(cold, c); got != tc.want || cg != tc.want {
				t.Errorf("strength after the insert is %d, a cold build's %d; want %d", got, cg, tc.want)
			}
			compareAlphaDBs(t, "incremental vs cold build", sys.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
		})
	}
}

// TestInsertFactPostsText: an insert into an attribute table indexes
// the row's TEXT cells by their codes, as a cold build and a load index
// every relation's TEXT columns — the three roads resolve the new value
// to the same row.
func TestInsertFactPostsText(t *testing.T) {
	sys, err := Build(academicsDB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertBatchContext(context.Background(), []InsertOp{{Rel: "research", Vals: []Value{IntVal(100), StringVal("Quantum Origami")}}}); err != nil {
		t.Fatal(err)
	}
	cold, err := Build(sys.AlphaDB().DB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []index.ColumnMatch{{Key: index.ColumnKey{Relation: "research", Column: "interest"}, Rows: [][]int{{8}}}}
	for label, s := range map[string]*System{"incremental": sys, "cold build": cold, "round trip": loaded} {
		if got := s.AlphaDB().Snapshot().CommonColumns([]string{"quantum origami"}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: lookup of the inserted interest finds %v want %v", label, got, want)
		}
	}
	compareAlphaDBs(t, "incremental vs cold build", sys.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
	compareAlphaDBs(t, "round trip vs cold build", loaded.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
}

// FuzzIngestMatchesBuild decodes bytes into insert batches over a small
// IMDb database and requires the maintained αDB to match a cold Build of
// the final database under compareAlphaDBs. Three bytes make a row: what
// to insert and two operands. An operand below 240 names a generator row
// of the relation; one from 240 names one of 16 ids outside them, which
// an entity row of the sequence may insert before or after the facts
// that name it. The database has more persons than the distinct-ratio
// guard's floor and fewer movies and companies, so no insert moves a
// guard: property discovery sees the same properties before and after.
func FuzzIngestMatchesBuild(f *testing.F) {
	g := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 3, NumPersons: 60, NumMovies: 20, NumCompany: 3})
	built, err := Build(g.DB, DefaultBuildConfig())
	if err != nil {
		f.Fatal(err)
	}
	var base bytes.Buffer
	if err := built.Save(&base); err != nil {
		f.Fatal(err)
	}
	ids := map[string][]int64{}
	for _, rel := range []string{"person", "movie", "company", "country", "language", "genre", "keyword", "role", "award"} {
		c := g.DB.Relation(rel).Column("id")
		for i := 0; i < c.Len(); i++ {
			ids[rel] = append(ids[rel], c.Int64(i))
		}
	}
	id := func(rel string, x byte) Value {
		if x >= 240 {
			return IntVal(50_000 + int64(x%16))
		}
		return IntVal(ids[rel][int(x)%len(ids[rel])])
	}
	f.Add([]byte{0, 1, 2, 2, 2, 0, 1, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := Load(bytes.NewReader(base.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		inserted := map[[2]int64]bool{}
		var ops []InsertOp
		flush := func() {
			if err := sys.InsertBatchContext(context.Background(), ops); err != nil {
				t.Fatal(err)
			}
			ops = ops[:0]
		}
		add := func(rel string, vals ...Value) { ops = append(ops, InsertOp{Rel: rel, Vals: vals}) }
		entity := func(kind int64, rel string, a byte, vals ...Value) {
			key := IntVal(50_000 + int64(a%16))
			if !inserted[[2]int64{kind, key.Int()}] {
				inserted[[2]int64{kind, key.Int()}] = true
				add(rel, append([]Value{key}, vals...)...)
			}
		}
		for i := 0; i+2 < len(data) && i < 3*64; i += 3 {
			a, b := data[i+1], data[i+2]
			switch data[i] % 9 {
			case 0:
				add("castinfo", id("person", a), id("movie", b), id("role", a+b))
			case 1:
				add("movietogenre", id("movie", a), id("genre", b))
			case 2:
				add("movietocompany", id("movie", a), id("company", b))
			case 3:
				add("persontoaward", id("person", a), id("award", b))
			case 4:
				add("movietokeyword", id("movie", a), id("keyword", b))
			case 5:
				entity(0, "person", a, StringVal(fmt.Sprintf("Fuzz Person %d", a%16)),
					StringVal([]string{"Male", "Female"}[b%2]), IntVal(1930+int64(b)), id("country", b))
			case 6:
				entity(1, "movie", a, StringVal(fmt.Sprintf("Fuzz Movie %d", a%16)),
					IntVal(1950+int64(b%60)), StringVal(fmt.Sprintf("%ds", 1950+int64(b%60)/10*10)), StringVal("PG"), id("language", b))
			case 7:
				entity(2, "company", a, StringVal(fmt.Sprintf("Fuzz Company %d", a%4)), id("country", b))
			default:
				flush()
			}
		}
		flush()
		cold, err := Build(sys.AlphaDB().DB(), DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		compareAlphaDBs(t, "incremental vs cold build", sys.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
		checkStrengthHistograms(t, "incremental", sys.AlphaDB())
	})
}

// TestSelfEdgeIngestMatchesBuild holds ingest to a cold Build where a
// fact links an entity relation to itself (sequelof: movie → movie): a
// new movie named on both sides of one row — a movie its own sequel —
// applies that row once, the movie being both the entity and the
// associated entity of every property the row feeds. Rows name movies
// before and after they exist, repeat pairs, and add genres (a second
// hop) to movies already linked.
func TestSelfEdgeIngestMatchesBuild(t *testing.T) {
	db := relation.NewDatabase("sequels")
	movie := relation.New("movie",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
		relation.Col("kind", relation.String),
	).SetPrimaryKey("id")
	genre := relation.New("genre", relation.Col("id", relation.Int), relation.Col("name", relation.String)).SetPrimaryKey("id")
	for i, name := range []string{"Comedy", "Drama", "Horror"} {
		genre.MustAppend(IntVal(int64(i)), StringVal(name))
	}
	sequel := relation.New("sequelof",
		relation.Col("movie_id", relation.Int),
		relation.Col("original_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("original_id", "movie", "id")
	mg := relation.New("movietogenre",
		relation.Col("movie_id", relation.Int),
		relation.Col("genre_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("genre_id", "genre", "id")
	rng := rand.New(rand.NewSource(5))
	kinds := []string{"feature", "short"}
	for i := int64(0); i < 60; i++ {
		movie.MustAppend(IntVal(i), StringVal(fmt.Sprintf("Movie %d", i%20)), StringVal(kinds[i%2]))
		mg.MustAppend(IntVal(i), IntVal(i%3))
		sequel.MustAppend(IntVal(i), IntVal(int64(rng.Intn(60))))
	}
	for _, r := range []*relation.Relation{movie, genre, sequel, mg} {
		db.AddRelation(r)
	}
	db.MarkEntity("movie")
	db.MarkProperty("genre")
	sys, err := Build(db, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Ids 60..99 land in a random order, so rows name them before and
	// after they exist.
	next, inserted := int64(60), map[int64]bool{}
	anyID := func() Value { return IntVal(int64(rng.Intn(100))) }
	for k := 0; k < 40; k++ {
		var ops []InsertOp
		for n := 0; n < 6; n++ {
			switch rng.Intn(5) {
			case 0:
				if id := next + int64(rng.Intn(4)); id < 100 && !inserted[id] {
					inserted[id] = true
					ops = append(ops, InsertOp{Rel: "movie", Vals: []Value{IntVal(id), StringVal(fmt.Sprintf("Movie %d", id%20)), StringVal(kinds[id%2])}})
				}
				for inserted[next] {
					next++
				}
			case 1:
				id := anyID()
				ops = append(ops, InsertOp{Rel: "sequelof", Vals: []Value{id, id}})
			case 2:
				ops = append(ops, InsertOp{Rel: "movietogenre", Vals: []Value{anyID(), IntVal(int64(rng.Intn(3)))}})
			default:
				ops = append(ops, InsertOp{Rel: "sequelof", Vals: []Value{anyID(), anyID()}})
			}
		}
		if err := sys.InsertBatchContext(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
	}
	cold, err := Build(sys.AlphaDB().DB(), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	compareAlphaDBs(t, "incremental vs cold build", sys.AlphaDB(), cold.AlphaDB(), rand.New(rand.NewSource(1)))
	checkStrengthHistograms(t, "incremental", sys.AlphaDB())
}
