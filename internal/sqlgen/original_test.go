package sqlgen

import (
	"context"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"squid/internal/abduction"
	"squid/internal/adb"
	"squid/internal/datagen"
	"squid/internal/disambig"
	"squid/internal/engine"
	"squid/internal/relation"
)

// executeOriginal runs the Q4 text OriginalSQL printed over db and returns
// the entity keys it selects, sorted. It reads the printer's own layout —
// blocks joined by INTERSECT, a FROM list whose aliased items are further
// instances of a relation, one conjunct a line, GROUP BY and HAVING
// count(*) >= n — and runs the blocks as one engine.Query over a view of
// db that holds every instance under the name the text calls it by. A
// normalized threshold, HAVING over total(), is not SQL the engine runs.
func executeOriginal(t *testing.T, db *relation.Database, pk, sql string) []int64 {
	t.Helper()
	view := relation.NewDatabase(db.Name)
	var q *engine.Query
	for _, text := range strings.Split(sql, "\nINTERSECT\n") {
		b := parseBlock(t, db, view, pk, text)
		if q == nil {
			q = b
		} else {
			q.Intersect = append(q.Intersect, b)
		}
	}
	res, err := engine.NewExecutor(view).ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("%v\n%s", err, sql)
	}
	keys := make([]int64, len(res.Rows))
	for i, row := range res.Rows {
		keys[i] = row[0].Int()
	}
	slices.Sort(keys)
	return keys
}

// parseBlock reads one SELECT block, selecting the entity's key, and
// adds the instances its FROM list names to view.
func parseBlock(t *testing.T, db, view *relation.Database, pk, text string) *engine.Query {
	t.Helper()
	lines := strings.Split(text, "\n")
	entity, _, _ := strings.Cut(strings.TrimPrefix(lines[0], "SELECT "), ".")
	key := engine.ColRef{Rel: entity, Col: pk}
	q := &engine.Query{Select: []engine.ColRef{key}, Distinct: true}
	for _, item := range strings.Split(strings.TrimPrefix(lines[1], "FROM "), ", ") {
		name, ref, aliased := strings.Cut(item, " AS ")
		if !aliased {
			ref = name
		}
		q.From = append(q.From, ref)
		if view.Relation(ref) == nil {
			inst := *db.Relation(name)
			inst.Name = ref
			view.AddRelation(&inst)
		}
	}
	for _, line := range lines[2:] {
		switch {
		case strings.HasPrefix(line, "WHERE "), strings.HasPrefix(line, "  AND "):
			parseConjunct(t, q, line[len("WHERE "):])
		case strings.HasPrefix(line, "GROUP BY "):
			q.GroupBy = []engine.ColRef{key}
		case strings.HasPrefix(line, "HAVING count(*) >= "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "HAVING count(*) >= "))
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			q.HavingCountGE = n
		default:
			t.Fatalf("unexpected line %q", line)
		}
	}
	return q
}

// parseConjunct adds rel.col OP operand to q: a join when the operand is
// a column, a predicate when it is a literal or a list of them.
func parseConjunct(t *testing.T, q *engine.Query, c string) {
	t.Helper()
	lhs, rest, _ := strings.Cut(c, " ")
	op, rhs, _ := strings.Cut(rest, " ")
	rel, col, _ := strings.Cut(lhs, ".")
	p := engine.Pred{Rel: rel, Col: col}
	switch op {
	case "=":
		p.Op = engine.OpEq
	case ">=":
		p.Op = engine.OpGE
	case "<=":
		p.Op = engine.OpLE
	case "IN":
		p.Op = engine.OpIn
		for rhs = strings.TrimPrefix(rhs, "("); ; rhs = strings.TrimPrefix(rhs, ", ") {
			var v string
			v, rhs = sqlLiteral(t, rhs)
			p.Vals = append(p.Vals, relation.StringVal(v))
			if rhs == ")" {
				break
			}
		}
		q.Preds = append(q.Preds, p)
		return
	default:
		t.Fatalf("conjunct %q", c)
	}
	if strings.HasPrefix(rhs, "'") {
		v, rest := sqlLiteral(t, rhs)
		if rest != "" {
			t.Fatalf("conjunct %q", c)
		}
		p.Val = relation.StringVal(v)
	} else if n, err := strconv.ParseInt(rhs, 10, 64); err == nil {
		p.Val = relation.IntVal(n)
	} else if x, err := strconv.ParseFloat(rhs, 64); err == nil {
		p.Val = relation.FloatVal(x)
	} else {
		rrel, rcol, _ := strings.Cut(rhs, ".")
		q.Joins = append(q.Joins, engine.Join{LeftRel: rel, LeftCol: col, RightRel: rrel, RightCol: rcol})
		return
	}
	q.Preds = append(q.Preds, p)
}

// sqlLiteral reads the string literal s starts with, a doubled quote
// inside it standing for one, and returns its value and what follows.
func sqlLiteral(t *testing.T, s string) (string, string) {
	t.Helper()
	var v strings.Builder
	for i := 1; i < len(s); i++ {
		if s[i] != '\'' {
			v.WriteByte(s[i])
			continue
		}
		if i+1 < len(s) && s[i+1] == '\'' {
			v.WriteByte('\'')
			i++
			continue
		}
		return v.String(), s[i+1:]
	}
	t.Fatalf("unterminated literal %q", s)
	return "", ""
}

// keysOf maps entity rows to their keys, sorted.
func keysOf(info *adb.EntityInfo, rows []int) []int64 {
	keys := make([]int64, len(rows))
	for i, row := range rows {
		keys[i] = info.IDByRow(row)
	}
	slices.Sort(keys)
	return keys
}

// imdbPersons builds the pool's IMDb database, as prepare returns it when
// prepare is not nil, and a person query grounded in it, for hand-built
// filters to replace its own.
func imdbPersons(t *testing.T, prepare func(*relation.Database) *relation.Database) (*relation.Database, *adb.EntityInfo, *abduction.Result) {
	t.Helper()
	db := datagen.GenerateIMDb(datagen.IMDbConfig{Seed: 7, NumPersons: 1500, NumMovies: 600, NumCompany: 30}).DB
	if prepare != nil {
		db = prepare(db)
	}
	alpha, err := adb.Build(db, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := db.Relation("person").Column("name")
	results, err := abduction.DiscoverCtx(context.Background(), alpha.Snapshot(),
		[]string{names.Str(0), names.Str(1)}, abduction.DefaultParams(), disambig.Resolve)
	if err != nil {
		t.Fatal(err)
	}
	return db, alpha.Entity("person"), results[0]
}

// checkOriginal requires the Q4 text of res to select the entities its
// filters' row sets intersect to, and returns how many that is.
func checkOriginal(t *testing.T, db *relation.Database, info *adb.EntityInfo, res *abduction.Result) int {
	t.Helper()
	rowSets := keysOf(info, abduction.IntersectRows(info, res.Filters))
	sql := OriginalSQL(res)
	if got := executeOriginal(t, db, info.PK, sql); !slices.Equal(got, rowSets) {
		t.Errorf("%v: the Q4 text selects %d entities, the row sets %d:\n%s", res.Filters, len(got), len(rowSets), sql)
	}
	return len(rowSets)
}

// checkOriginalRepro holds the Q4 text of a basic filter on attr beside a
// derived one at θ 1 to the row sets, which give want persons.
func checkOriginalRepro(t *testing.T, attr, value, derivedAttr, derivedValue string, want int) {
	db, info, res := imdbPersons(t, nil)
	res.Filters = []*abduction.Filter{
		{Kind: abduction.BasicCategorical, Basic: info.BasicByAttr(attr), Values: []string{value}},
		{Kind: abduction.Derived, Derivd: info.DerivedByAttr(derivedAttr), Values: []string{derivedValue}, Theta: 1},
	}
	if n := checkOriginal(t, db, info, res); n != want {
		t.Errorf("the row sets give %d persons, want %d", n, want)
	}
}

// TestOriginalSQLRoleBesideComedy: a role filter joins castinfo, and so
// does the walk of movie:genre. On one castinfo instance the block counts
// only the comedies a person played as an actor; on two, count(*)
// multiplies by the person's actor credits. The role filter gets a block
// of its own.
func TestOriginalSQLRoleBesideComedy(t *testing.T) {
	checkOriginalRepro(t, "role", "Actor", "movie:genre", "Comedy", 1129)
}

// TestOriginalSQLCountryBesideMovieCountry: the person's country and the
// walk of movie:country both end in country; on one instance the block
// asks country.name to be 'USA' and 'France' at once.
func TestOriginalSQLCountryBesideMovieCountry(t *testing.T) {
	checkOriginalRepro(t, "country", "USA", "movie:country", "France", 129)
}

// TestOriginalSQLRoleBesideGenreSweep widens the first repro to every
// role × genre × θ = 1, 2, 3, on the IMDb fixture without repeated
// (person, movie) pairs, where count(*) and the strengths count alike: at
// θ > 1 a castinfo instance of the role filter in the derived block,
// shared or not, changes what count(*) counts.
func TestOriginalSQLRoleBesideGenreSweep(t *testing.T) {
	db, info, res := imdbPersons(t, func(db *relation.Database) *relation.Database { return dropRepeatedPairs(t, db) })
	role, genre := info.BasicByAttr("role"), info.DerivedByAttr("movie:genre")
	checked := 0
	for _, r := range role.DistinctValues() {
		for _, g := range genre.DistinctValues() {
			for theta := 1; theta <= 3; theta++ {
				res.Filters = []*abduction.Filter{
					{Kind: abduction.BasicCategorical, Basic: role, Values: []string{r}},
					{Kind: abduction.Derived, Derivd: genre, Values: []string{g}, Theta: theta},
				}
				checkOriginal(t, db, info, res)
				checked++
			}
		}
	}
	t.Logf("%d role × genre × θ queries checked", checked)
}

// dropRepeatedPairs returns db without the fact rows that repeat an
// (entity, via) pair a derived property of db walks: the build counts a
// strength over an entity's distinct via rows, HAVING count(*) over its
// rows, so only on such a database can the two agree.
func dropRepeatedPairs(t *testing.T, db *relation.Database) *relation.Database {
	t.Helper()
	alpha, err := adb.Build(db, adb.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[string][][2]string{}
	for _, e := range db.EntityRelations() {
		for _, dp := range alpha.Entity(e).Derived {
			p := [2]string{min(dp.Fact1EntityCol, dp.Fact1ViaCol), max(dp.Fact1EntityCol, dp.Fact1ViaCol)}
			if !slices.Contains(pairs[dp.Fact1], p) {
				pairs[dp.Fact1] = append(pairs[dp.Fact1], p)
			}
		}
	}
	replace := map[string]*relation.Relation{}
	for _, name := range slices.Sorted(maps.Keys(pairs)) {
		r := db.Relation(name)
		cols := make([]*relation.Column, r.NumCols())
		for i, c := range r.Columns() {
			cols[i] = relation.Col(c.Name, c.Type)
		}
		out := relation.New(name, cols...)
		out.PrimaryKey, out.Foreign = r.PrimaryKey, r.Foreign
		seen := map[[3]int64]bool{}
		for i := range r.NumRows() {
			var keys [][3]int64
			for k, p := range pairs[name] {
				keys = append(keys, [3]int64{int64(k), r.Column(p[0]).Int64(i), r.Column(p[1]).Int64(i)})
			}
			if slices.ContainsFunc(keys, func(k [3]int64) bool { return seen[k] }) {
				continue
			}
			for _, k := range keys {
				seen[k] = true
			}
			out.MustAppend(r.Row(i)...)
		}
		t.Logf("%s: %d of %d rows repeat a pair", name, r.NumRows()-out.NumRows(), r.NumRows())
		replace[name] = out
	}
	return db.CloneWith(replace)
}

// executeWalk runs derived filter f's Q4 walk, lowered as OriginalSQL
// prints it, as a plan over db with GROUP BY key HAVING count(*) >= θ,
// and returns the keys it selects, sorted. A walk that names one relation
// twice (a self-association) is no engine plan: ok is false.
func executeWalk(t *testing.T, db *relation.Database, info *adb.EntityInfo, f *abduction.Filter) (keys []int64, ok bool) {
	t.Helper()
	var l lowered
	l.lower(f, info.Relation, info.PK, true)
	names := slices.Clone(l.rels[:l.nRel])
	if slices.Sort(names); len(slices.Compact(names)) < l.nRel {
		return nil, false
	}
	key := engine.ColRef{Rel: info.Relation, Col: info.PK}
	q := &engine.Query{From: []string{info.Relation}, Select: []engine.ColRef{key}, GroupBy: []engine.ColRef{key}, HavingCountGE: f.Theta}
	l.place(q, f)
	got, err := engine.NewExecutor(db).ExecuteCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", f, err)
	}
	for _, row := range got.Rows {
		keys = append(keys, row[0].Int())
	}
	slices.Sort(keys)
	return keys, true
}

// TestDerivedWalkIsRowSetOracle holds the derived statistics to an
// independent count: a derived filter's Q4 walk, run over the base
// relations alone (executeWalk), must select exactly the filter's row
// set. It checks every derived filter of the pool's discoveries and, as
// a sweep of the statistics themselves, every value of every derived
// property at θ = 1, 2, 3. The pool is built on databases without
// repeated (entity, via) pairs (dropRepeatedPairs). A normalized
// threshold is no HAVING count, and a walk that names one relation twice
// is no engine plan; both are skipped and counted. Every discovery
// without a normalized threshold must also select, in its whole Q4 text,
// the rows its row sets intersect to.
func TestDerivedWalkIsRowSetOracle(t *testing.T) {
	type counts struct{ checked, normalized, repeated, queries, swept, sweptRepeated int }
	per := map[string]*counts{}
	epochs := map[string]*adb.Epoch{}
	// walk holds f's walk to its row set; false when the walk is no plan.
	walk := func(at string, ep *adb.Epoch, info *adb.EntityInfo, f *abduction.Filter) bool {
		keys, ok := executeWalk(t, ep.DB, info, f)
		if !ok {
			return false
		}
		if want := keysOf(info, f.RowSet().ToSorted()); !slices.Equal(keys, want) {
			t.Errorf("%s: %s: the walk selects %d entities, the row set holds %d", at, f, len(keys), len(want))
		}
		return true
	}
	seen := map[string]bool{}
	for _, d := range discoveryPool(t, func(db *relation.Database) *relation.Database { return dropRepeatedPairs(t, db) }) {
		ds, _, _ := strings.Cut(d.at, " ")
		if per[ds] == nil {
			per[ds], epochs[ds] = &counts{}, d.ep
		}
		c, res, info := per[ds], d.res, d.res.EntityInfo()
		normalized := false
		for _, f := range res.Filters {
			normalized = normalized || f.NormUse
			id := ds + " " + f.String()
			if f.Kind != abduction.Derived || seen[id] {
				continue
			}
			seen[id] = true
			switch {
			case f.NormUse:
				c.normalized++
			case walk(d.at, d.ep, info, f):
				c.checked++
			default:
				c.repeated++
			}
		}
		if normalized {
			continue
		}
		c.queries++
		checkOriginal(t, d.ep.DB, info, res)
	}
	for ds, ep := range epochs {
		c := per[ds]
		for _, e := range ep.DB.EntityRelations() {
			info := ep.Entity(e)
			for _, dp := range info.Derived {
				for _, v := range dp.DistinctValues() {
					for theta := 1; theta <= 3; theta++ {
						f := &abduction.Filter{Kind: abduction.Derived, Derivd: dp, Values: []string{v}, Theta: theta, Unstored: true}
						if !walk(ds, ep, info, f) {
							c.sweptRepeated++
							break
						}
						c.swept++
					}
				}
			}
		}
	}
	total := 0
	for _, ds := range slices.Sorted(maps.Keys(per)) {
		c := per[ds]
		total += c.checked
		t.Logf("%s: pool: %d derived filters checked, %d normalized skipped, %d repeated-relation walks skipped, %d whole Q4 texts checked; sweep: %d filters checked, %d values on repeated-relation walks skipped",
			ds, c.checked, c.normalized, c.repeated, c.queries, c.swept, c.sweptRepeated)
	}
	if total == 0 {
		t.Error("the pool checked no derived filter")
	}
}
