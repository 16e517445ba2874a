package sqlgen

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/benchqueries"
	"squid/internal/datagen"
	"squid/internal/disambig"
	"squid/internal/engine"
	"squid/internal/relation"
)

// discovery is one member of the request pool the sqlgen tests share.
type discovery struct {
	at  string // dataset, example set and parameter set, e.g. "imdb set 3 normalized"
	ep  *adb.Epoch
	res *abduction.Result
}

// discoveryPool runs every request of the pool — an example set of ten
// for every benchmark intent of IMDb, DBLP and Adult, and two pairs of
// the Fig 1 academics (the attribute-table shape), each under default
// parameters, disjunctions of up to three values and normalized
// strengths — over the databases prepare returns for the generated ones
// (nil: the generated ones themselves). A request that finds no entity
// is left out.
func discoveryPool(t *testing.T, prepare func(*relation.Database) *relation.Database) []discovery {
	t.Helper()
	imdb := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 1500, NumMovies: 600, NumCompany: 30})
	dblp := datagen.GenerateDBLP(datagen.DBLPConfig{Seed: 3, NumAuthor: 800, NumPubs: 1600})
	adult := datagen.GenerateAdult(datagen.AdultConfig{Seed: 5, NumRows: 1500, ScaleFactor: 1})
	datasets := []struct {
		name string
		db   *relation.Database
		sets [][]string
	}{
		{"imdb", imdb.DB, examplePool(t, imdb.DB, benchqueries.IMDbBenchmarks(imdb))},
		{"dblp", dblp.DB, examplePool(t, dblp.DB, benchqueries.DBLPBenchmarks(dblp))},
		{"adult", adult.DB, examplePool(t, adult.DB, benchqueries.AdultBenchmarks(context.Background(), adult, 11))},
		{"academics", academicsDB(), [][]string{{"Dan Suciu", "Sam Madden"}, {"Sam Madden", "Joseph Hellerstein"}}},
	}
	disjunctive, normalized := abduction.DefaultParams(), abduction.DefaultParams()
	disjunctive.MaxDisjunction = 3
	normalized.NormalizeAssociation = true
	paramSets := []struct {
		name   string
		params abduction.Params
	}{{"default", abduction.DefaultParams()}, {"disjunctive", disjunctive}, {"normalized", normalized}}

	var pool []discovery
	for _, ds := range datasets {
		db := ds.db
		if prepare != nil {
			db = prepare(db)
		}
		alpha, err := adb.Build(db, adb.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ep := alpha.Snapshot()
		for i, set := range ds.sets {
			for _, ps := range paramSets {
				results, err := abduction.DiscoverCtx(context.Background(), ep, set, ps.params, disambig.Resolve)
				if err != nil {
					continue
				}
				pool = append(pool, discovery{at: fmt.Sprintf("%s set %d %s", ds.name, i, ps.name), ep: ep, res: results[0]})
			}
		}
	}
	return pool
}

const goldenForms = "testdata/forms.golden"

// TestGoldenForms pins every printed form of every discovery of the pool
// to testdata/forms.golden: the αDB text (Q5), the original-schema text
// (Q4), PredicateCount, and ToEngineQuery's plan. A missing golden file
// is written from the code under test and the test fails, so a deliberate
// change is made by deleting the file, running the test, and reviewing
// the file's diff.
func TestGoldenForms(t *testing.T) {
	var got strings.Builder
	for _, d := range discoveryPool(t, nil) {
		joins, sels := PredicateCount(d.res)
		fmt.Fprintf(&got, "=== %s\n--- alpha\n%s\n--- original\n%s\n--- predicates\njoins %d selections %d\n--- plan\n",
			d.at, AlphaSQL(d.res), OriginalSQL(d.res), joins, sels)
		writePlan(&got, ToEngineQuery(d.res), "")
	}
	want, err := os.ReadFile(goldenForms)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(goldenForms), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenForms, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and run the test again", goldenForms)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotEntries, wantEntries := goldenEntries(got.String()), goldenEntries(string(want))
	if len(gotEntries) != len(wantEntries) {
		t.Errorf("%d discoveries, the golden file holds %d", len(gotEntries), len(wantEntries))
	}
	for i := range min(len(gotEntries), len(wantEntries)) {
		g, w := gotEntries[i], wantEntries[i]
		if g.at != w.at {
			t.Fatalf("discovery %d is %q, the golden file's %q", i, g.at, w.at)
		}
		for form, text := range g.forms {
			if text != w.forms[form] {
				t.Errorf("%s: %s differs\ngot:\n%s\nwant:\n%s", g.at, form, text, w.forms[form])
			}
		}
	}
}

// goldenEntry is one discovery's section of the golden file: its forms
// by name.
type goldenEntry struct {
	at    string
	forms map[string]string
}

func goldenEntries(text string) []goldenEntry {
	var out []goldenEntry
	for _, sec := range strings.Split(text, "=== ")[1:] {
		at, body, _ := strings.Cut(sec, "\n")
		e := goldenEntry{at: at, forms: map[string]string{}}
		for _, part := range strings.Split(body, "--- ")[1:] {
			form, text, _ := strings.Cut(part, "\n")
			e.forms[form] = text
		}
		out = append(out, e)
	}
	return out
}

// writePlan renders q one clause a line, its INTERSECT branches indented
// below it. An operand shows its type; a list of integer keys shows its
// length and an FNV-64a hash of its members in order.
func writePlan(b *strings.Builder, q *engine.Query, indent string) {
	fmt.Fprintf(b, "%sFROM %s\n", indent, strings.Join(q.From, ", "))
	for _, j := range q.Joins {
		fmt.Fprintf(b, "%sJOIN %s\n", indent, j)
	}
	for _, p := range q.Preds {
		fmt.Fprintf(b, "%sWHERE %s.%s %s %s\n", indent, p.Rel, p.Col, p.Op, planOperand(p))
	}
	fmt.Fprintf(b, "%sSELECT %v DISTINCT %v GROUP BY %v HAVING %d\n", indent, q.Select, q.Distinct, q.GroupBy, q.HavingCountGE)
	for _, sub := range q.Intersect {
		fmt.Fprintf(b, "%sINTERSECT\n", indent)
		writePlan(b, sub, indent+"  ")
	}
}

func planOperand(p engine.Pred) string {
	if p.Op != engine.OpIn {
		return typedLiteral(p.Val)
	}
	if len(p.Vals) > 0 && p.Vals[0].IsInt() {
		h := fnv.New64a()
		for _, v := range p.Vals {
			fmt.Fprintf(h, "%s,", typedLiteral(v))
		}
		return fmt.Sprintf("keys[n=%d fnv=%016x]", len(p.Vals), h.Sum64())
	}
	parts := make([]string, len(p.Vals))
	for i, v := range p.Vals {
		parts[i] = typedLiteral(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func typedLiteral(v relation.Value) string {
	switch {
	case v.IsString():
		return v.SQLLiteral()
	case v.IsInt():
		return "int " + v.String()
	case v.IsNull():
		return "NULL"
	}
	return "float " + v.String()
}
