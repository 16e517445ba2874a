// Package talos reimplements the core of TALOS (Tran, Chan &
// Parthasarathy, "Query reverse engineering", VLDBJ 2014), the
// closed-world decision-tree QRE system SQuID is compared against in
// §7.5 of the paper. TALOS performs a full join among the participating
// relations, labels every row of the denormalized table positive if its
// projected value appears in the example output — regardless of which
// join path produced the row, the mislabeling the paper dissects on IQ1
// — trains a decision tree, and reads the query off the positive paths.
package talos

import (
	"math"
	"sort"
	"time"

	"squid/internal/adb"
	"squid/internal/baselines/ml"
)

// Result is the outcome of one reverse-engineering run.
type Result struct {
	// Output is the set of projected entity values the learned query
	// selects (an entity is selected when any of its denormalized rows
	// reaches a positive leaf).
	Output []string
	// NumPredicates is the total condition count across positive tree
	// paths — the Figs 14/15 metric.
	NumPredicates int
	// Time is the end-to-end discovery time (denormalize + train +
	// apply).
	Time time.Duration
	// Rows is the denormalized table size (diagnostics).
	Rows int
}

// Config bounds the denormalized table.
type Config struct {
	// MaxRows caps the multi-valued expansion; once exceeded,
	// remaining multi-valued properties contribute only their first
	// value per entity.
	MaxRows int
	Tree    ml.TreeConfig
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{MaxRows: 250000, Tree: ml.DefaultTreeConfig()}
}

// ReverseEngineer learns a query selecting exactly the example values
// (closed world) over the denormalized view of the entity relation.
// The αDB is used only as a convenient provider of the joined attribute
// values — exactly what TALOS's full join produces; none of SQuID's
// derived statistics are consulted.
func ReverseEngineer(info *adb.EntityInfo, attr string, examples []string, cfg Config) *Result {
	start := time.Now()
	if cfg.MaxRows == 0 {
		cfg = DefaultConfig()
	}

	table := denormalize(info, cfg.MaxRows)

	// Label: positive iff the row's entity projects to an example value
	// (the closed-world labeling on the denormalized table).
	exampleSet := make(map[string]bool, len(examples))
	for _, e := range examples {
		exampleSet[e] = true
	}
	attrCol := info.Rel().Column(attr)
	y := make([]int, len(table.rows))
	for i, entityRow := range table.entityOf {
		if !attrCol.IsNull(entityRow) && exampleSet[attrCol.Get(entityRow).String()] {
			y[i] = 1
		}
	}

	tree := ml.Train(table.rows, y, table.feats, cfg.Tree)

	// Apply: an entity is selected when any of its rows is predicted
	// positive.
	selected := map[int]bool{}
	for i, entityRow := range table.entityOf {
		if selected[entityRow] {
			continue
		}
		if tree.Predict(table.rows[i]) == 1 {
			selected[entityRow] = true
		}
	}
	var output []string
	for entityRow := range selected {
		if !attrCol.IsNull(entityRow) {
			output = append(output, attrCol.Get(entityRow).String())
		}
	}
	sort.Strings(output)

	return &Result{
		Output:        output,
		NumPredicates: tree.NumPredicates(),
		Time:          time.Since(start),
		Rows:          len(table.rows),
	}
}

// denormTable is the flattened feature table.
type denormTable struct {
	feats    []ml.Feature
	rows     [][]float64
	entityOf []int // row -> entity row
}

// denormalize flattens the entity relation with its basic properties
// (direct attributes, FK dims, attribute tables, fact dims including
// entity associations) into one table, expanding multi-valued
// properties row-wise in descending domain-size order until the row cap
// is hit; further multi-valued properties are collapsed to their first
// value, mirroring a bounded full join.
func denormalize(info *adb.EntityInfo, maxRows int) *denormTable {
	t := &denormTable{}

	// Order properties: single-valued first, then multi-valued by
	// descending average multiplicity so the most informative
	// associations (the entity association itself) expand first.
	var single, multi []*adb.BasicProperty
	for _, p := range info.Basic {
		if p.MultiValued {
			multi = append(multi, p)
		} else {
			single = append(single, p)
		}
	}
	sort.SliceStable(multi, func(i, j int) bool {
		return avgMultiplicity(multi[i], info) > avgMultiplicity(multi[j], info)
	})
	props := append(append([]*adb.BasicProperty(nil), single...), multi...)

	// Feature encoding: per categorical property a code table, keyed
	// by dictionary code so featurization never decodes strings.
	codes := make([]map[int32]float64, len(props))
	for i, p := range props {
		t.feats = append(t.feats, ml.Feature{Name: p.Attr, Categorical: p.Kind == adb.Categorical})
		if p.Kind == adb.Categorical {
			codes[i] = map[int32]float64{}
		}
	}
	encode := func(i int, v int32) float64 {
		c, ok := codes[i][v]
		if !ok {
			c = float64(len(codes[i]))
			codes[i][v] = c
		}
		return c
	}

	// Build rows entity by entity, expanding multi-valued properties
	// while the budget allows.
	budgetExceeded := false
	for entityRow := 0; entityRow < info.NumRows; entityRow++ {
		rows := [][]float64{make([]float64, len(props))}
		for i, p := range props {
			switch {
			case p.Kind == adb.Numeric:
				v, ok := p.NumValue(entityRow)
				cell := math.NaN()
				if ok {
					cell = v
				}
				for _, r := range rows {
					r[i] = cell
				}
			case !p.MultiValued:
				vals := p.ValueCodes(entityRow)
				cell := float64(ml.MissingCat)
				if len(vals) > 0 {
					cell = encode(i, vals[0])
				}
				for _, r := range rows {
					r[i] = cell
				}
			default:
				vals := p.ValueCodes(entityRow)
				if len(vals) == 0 {
					for _, r := range rows {
						r[i] = ml.MissingCat
					}
					continue
				}
				// Reserve one row for every not-yet-emitted entity so
				// the cap holds globally.
				reserve := info.NumRows - entityRow - 1
				if budgetExceeded || len(t.rows)+len(rows)*len(vals)+reserve > maxRows {
					budgetExceeded = true
					cell := encode(i, vals[0])
					for _, r := range rows {
						r[i] = cell
					}
					continue
				}
				expanded := make([][]float64, 0, len(rows)*len(vals))
				for _, r := range rows {
					for _, v := range vals {
						nr := append([]float64(nil), r...)
						nr[i] = encode(i, v)
						expanded = append(expanded, nr)
					}
				}
				rows = expanded
			}
		}
		for _, r := range rows {
			t.rows = append(t.rows, r)
			t.entityOf = append(t.entityOf, entityRow)
		}
	}
	return t
}

// avgMultiplicity estimates the average number of values per entity for
// a multi-valued property (sampled).
func avgMultiplicity(p *adb.BasicProperty, info *adb.EntityInfo) float64 {
	n, total := 0, 0
	step := info.NumRows/200 + 1
	for row := 0; row < info.NumRows; row += step {
		total += len(p.ValueCodes(row))
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
