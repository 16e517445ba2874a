package datagen

import (
	"testing"
)

// tinyGen returns a small config for fast tests.
func tinyGen() GenConfig {
	return GenConfig{
		Seed: 7, NumCustomers: 800, NumProducts: 200, NumFacts: 6000,
		Skew: 1.05, NumRegions: 6, NumSegments: 4, NumBrands: 10,
		NumTags: 8, TagsPerProduct: 2, NumGroups: 2, GroupSize: 16,
	}
}

func TestGenSchemaShape(t *testing.T) {
	g := GenerateGen(tinyGen())
	// 5 dims + customer + product + producttotag + purchase.
	if got := g.DB.NumRelations(); got != 9 {
		t.Errorf("relations=%d want 9", got)
	}
	// The generated facts must be consistent with the entity and
	// dimension rows they reference.
	checkIntegrity(t, g.DB)
	if got := len(g.DB.EntityRelations()); got != 2 {
		t.Errorf("entities=%v", g.DB.EntityRelations())
	}
	c := g.DB.Relation("customer").NumRows()
	p := g.DB.Relation("product").NumRows()
	f := g.DB.Relation("purchase").NumRows()
	if !(c > p) || f < c {
		t.Errorf("cardinality shape broken: customers=%d products=%d facts=%d", c, p, f)
	}
	// Distinct-value budgets are honored exactly.
	for _, d := range []struct {
		rel  string
		want int
	}{{"region", 6}, {"segment", 4}, {"brand", 10}, {"tag", 8}} {
		if got := g.DB.Relation(d.rel).NumRows(); got != d.want {
			t.Errorf("%s rows=%d want %d", d.rel, got, d.want)
		}
	}
}

func TestGenDeterminism(t *testing.T) {
	a := GenerateGen(tinyGen())
	b := GenerateGen(tinyGen())
	if a.DB.TotalRows() != b.DB.TotalRows() {
		t.Fatal("generation not deterministic in size")
	}
	ra, rb := a.DB.Relation("purchase"), b.DB.Relation("purchase")
	for _, row := range []int{0, 100, ra.NumRows() - 1} {
		for _, col := range []string{"customer_id", "product_id", "channel_id"} {
			if !ra.Get(row, col).Equal(rb.Get(row, col)) {
				t.Fatalf("cell (%d,%s) differs", row, col)
			}
		}
	}
	// A different seed produces a different database.
	cfg := tinyGen()
	cfg.Seed = 8
	if c := GenerateGen(cfg); c.DB.Relation("purchase").Get(0, "product_id").Equal(ra.Get(0, "product_id")) &&
		c.DB.Relation("purchase").Get(1, "product_id").Equal(ra.Get(1, "product_id")) &&
		c.DB.Relation("purchase").Get(2, "product_id").Equal(ra.Get(2, "product_id")) {
		t.Error("seed change did not move the fact table")
	}
}

func TestGenPlantedLoyalists(t *testing.T) {
	g := GenerateGen(tinyGen())
	if len(g.Loyalists) < 4 {
		t.Fatalf("only %d loyalists planted", len(g.Loyalists))
	}
	// Loyal-brand product ids.
	product := g.DB.Relation("product")
	loyal := map[int64]bool{}
	bcol := product.Column("brand_id")
	for i := 0; i < product.NumRows(); i++ {
		if bcol.Get(i).Int() == 0 {
			loyal[product.Get(i, "id").Int()] = true
		}
	}
	// Every loyalist has many distinct loyal-brand purchases.
	purchase := g.DB.Relation("purchase")
	ccol, pcol := purchase.Column("customer_id"), purchase.Column("product_id")
	counts := map[int64]map[int64]bool{}
	for i := 0; i < purchase.NumRows(); i++ {
		if p := pcol.Get(i).Int(); loyal[p] {
			c := ccol.Get(i).Int()
			if counts[c] == nil {
				counts[c] = map[int64]bool{}
			}
			counts[c][p] = true
		}
	}
	for _, c := range g.Loyalists {
		if len(counts[c]) < 8 {
			t.Errorf("loyalist %d has only %d distinct loyal-brand purchases", c, len(counts[c]))
		}
	}
}

// TestGenExampleSetsResolve pins the fixture contract: example sets
// derived from the config alone (no Gen struct) name real, planted
// customers — the property a bench run loading a snapshot depends on.
func TestGenExampleSetsResolve(t *testing.T) {
	cfg := tinyGen()
	g := GenerateGen(cfg)
	sets := GenExampleSets(cfg)
	if len(sets) < 3 {
		t.Fatalf("only %d example sets", len(sets))
	}
	names := map[string]bool{}
	customer := g.DB.Relation("customer")
	ncol := customer.Column("name")
	for i := 0; i < customer.NumRows(); i++ {
		names[ncol.Str(i)] = true
	}
	loyalistNames := map[string]bool{}
	for _, id := range g.Loyalists {
		loyalistNames[ncol.Str(int(id))] = true
	}
	for si, set := range sets {
		for _, n := range set {
			if !names[n] {
				t.Fatalf("set %d example %q is not a customer", si, n)
			}
		}
	}
	// The first set must be exactly planted loyalists.
	for _, n := range sets[0] {
		if !loyalistNames[n] {
			t.Errorf("first set example %q is not a planted loyalist", n)
		}
	}
}
