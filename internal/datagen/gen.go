package datagen

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"squid/internal/relation"
)

// GenConfig scales the schema-aware synthetic workload generator behind
// the million-row scale track. Unlike the IMDb/DBLP generators — which
// reproduce a fixed paper schema — this one is parameterized end to
// end: entity cardinalities, fact-table size, Zipf skew, and the
// per-column distinct-value budgets of every dimension are all
// configurable, and generation is fully deterministic given Seed.
type GenConfig struct {
	Seed int64

	// Entity cardinalities.
	NumCustomers int
	NumProducts  int
	// NumFacts is the size of the purchase fact table before planted
	// structure (the dominant term at scale).
	NumFacts int

	// Skew is the Zipf exponent shaping product popularity and customer
	// activity (higher = heavier head).
	Skew float64

	// Per-column distinct-value budgets for the dimension relations.
	NumRegions  int
	NumSegments int
	NumBrands   int
	NumTags     int
	NumChannels int

	// TagsPerProduct is the mean size of a product's tag set.
	TagsPerProduct int

	// Planted entity classes: NumGroups loyalist groups of GroupSize
	// customers each, scattered across the id space. Group g is loyal to
	// brand g (whose products also carry the reserved tag g), so each
	// group is discoverable through the customer↔brand and customer↔tag
	// derived associations at paper-like selectivity — GroupSize members
	// out of NumCustomers.
	NumGroups int
	GroupSize int
}

// gen100kConfig is the reduced scale the CI smoke runs: ~100k total
// rows.
func gen100kConfig() GenConfig {
	return GenConfig{
		Seed:         20190625,
		NumCustomers: 9000,
		NumProducts:  3000,
		NumFacts:     80000,
		Skew:         1.05,
		NumRegions:   12,
		NumSegments:  8,
		NumBrands:    40,
		NumTags:      24,
		NumChannels:  16,

		TagsPerProduct: 2,
		NumGroups:      3,
		GroupSize:      48,
	}
}

// gen1mConfig is the million-row scale track: ~1M total rows, fact
// dominated like the paper's IMDb workload (castinfo ≫ everything).
func gen1mConfig() GenConfig {
	return GenConfig{
		Seed:         20190625,
		NumCustomers: 60000,
		NumProducts:  20000,
		NumFacts:     860000,
		Skew:         1.05,
		NumRegions:   20,
		NumSegments:  10,
		NumBrands:    120,
		NumTags:      40,
		NumChannels:  24,

		TagsPerProduct: 2,
		NumGroups:      3,
		GroupSize:      96,
	}
}

// GenScaleConfig maps a bench scale name ("gen100k", "gen1m") to its
// config; ok is false for unknown names.
func GenScaleConfig(scale string) (GenConfig, bool) {
	switch scale {
	case "gen100k":
		return gen100kConfig(), true
	case "gen1m":
		return gen1mConfig(), true
	}
	return GenConfig{}, false
}

// normalizeGen clamps a config to the floors generation needs. Both
// GenerateGen and GenExampleSets normalize, so the example sets derived
// from a raw config always name the customers the generated (clamped)
// database planted — the fixture contract.
func normalizeGen(cfg GenConfig) GenConfig {
	if cfg.NumCustomers < 400 {
		cfg.NumCustomers = 400
	}
	if cfg.NumProducts < 100 {
		cfg.NumProducts = 100
	}
	if cfg.NumFacts < cfg.NumCustomers {
		cfg.NumFacts = cfg.NumCustomers
	}
	if cfg.Skew <= 0 {
		cfg.Skew = 1.0
	}
	clampDim := func(n *int, floor int) {
		if *n < floor {
			*n = floor
		}
	}
	if cfg.NumGroups < 1 {
		cfg.NumGroups = 1
	}
	clampDim(&cfg.NumRegions, 2)
	clampDim(&cfg.NumSegments, 2)
	// The last NumGroups channels are reserved for the planted groups.
	clampDim(&cfg.NumChannels, len(genChannelBase)+cfg.NumGroups)
	if cfg.TagsPerProduct < 1 {
		cfg.TagsPerProduct = 1
	}
	if cfg.GroupSize < 8 {
		cfg.GroupSize = 8
	}
	// Every group needs its own brand and reserved tag, plus at least two
	// unplanted values of each.
	clampDim(&cfg.NumBrands, cfg.NumGroups+2)
	clampDim(&cfg.NumTags, cfg.NumGroups+2)
	// The scattered loyalists must fit the id space with stride ≥ 1.
	if maxLoyal := (cfg.NumCustomers - 20) / 2; cfg.NumGroups*cfg.GroupSize > maxLoyal {
		cfg.GroupSize = maxLoyal / cfg.NumGroups
	}
	return cfg
}

// loyalistStride returns the id-space stride between consecutive
// planted loyalists (groups interleaved), scattering the classes across
// the whole customer table instead of leaving them a contiguous block.
func loyalistStride(cfg GenConfig) int {
	s := (cfg.NumCustomers - 20) / (cfg.NumGroups * cfg.GroupSize)
	if s < 1 {
		s = 1
	}
	return s
}

// loyalistID returns the customer id of member j of planted group g —
// a pure function of the config, so example sets derived from the
// config alone name the same customers the generator planted.
func loyalistID(cfg GenConfig, g, j int) int {
	return 10 + (j*cfg.NumGroups+g)*loyalistStride(cfg)
}

// loyalistAge returns the planted age of member j of any group: a
// (31 mod 63)-walk over the full 18..80 domain, so every example-set
// prefix of 3+ members spans nearly the whole age range — a filter a
// paper-faithful abduction rejects for excessive domain coverage,
// keeping the discovered queries anchored on the planted associations.
func loyalistAge(j int) int {
	return 18 + (j*31)%63
}

// Gen bundles the generated retail-shaped database with its planted
// ground truth.
type Gen struct {
	DB  *relation.Database
	Cfg GenConfig

	// Groups are the planted loyalist classes: Groups[g] lists the
	// customer ids loyal to brand g. Loyalists is Groups[0], kept as the
	// canonical class for tests and docs.
	Groups     [][]int64
	Loyalists  []int64
	LoyalBrand string
}

var genRegionBase = []string{
	"North", "South", "East", "West", "Central", "Pacific", "Mountain",
	"Atlantic", "Gulf", "Lakes", "Plains", "Highlands",
}

var genSegmentBase = []string{
	"Consumer", "Corporate", "SmallBiz", "Enterprise", "Education",
	"Government", "Healthcare", "Nonprofit",
}

var genChannelBase = []string{"online", "store", "mobile", "partner"}

// dimValues returns n distinct labels: the base list first, then
// generated overflow — the per-column distinct-value budget knob.
func dimValues(base []string, prefix string, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i < len(base) {
			out = append(out, base[i])
		} else {
			out = append(out, fmt.Sprintf("%s %d", prefix, i))
		}
	}
	return out
}

// productName produces a unique product name for index i.
func productName(i int) string {
	a := titleAdjectives[i%len(titleAdjectives)]
	n := titleNouns[(i/len(titleAdjectives))%len(titleNouns)]
	return fmt.Sprintf("%s %s %d", a, n, i/(len(titleAdjectives)*len(titleNouns)))
}

// brandName produces a unique brand label for index i; brand 0 is the
// first planted loyalty brand.
func brandName(i int) string {
	if i == 0 {
		return "Aurora Works"
	}
	n := titleNouns[i%len(titleNouns)]
	return fmt.Sprintf("%s Labs %d", n, i/len(titleNouns))
}

// tagName produces a unique tag label for index i.
func tagName(i int) string {
	k := imdbKeywords[i%len(imdbKeywords)]
	if i < len(imdbKeywords) {
		return k
	}
	return fmt.Sprintf("%s-%d", k, i/len(imdbKeywords))
}

// renormalize scales weights to sum to 1 (weightedPick's contract);
// all-zero weights are left alone.
func renormalize(w []float64) {
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return
	}
	for i := range w {
		w[i] /= total
	}
}

// GenerateGen builds the retail-shaped database: configurable
// dimensions (region, segment, brand, tag, channel), two entity
// relations (customer, product), a product↔tag bridge, and the
// purchase fact table joining customers to products with Zipf-skewed
// popularity on both sides. All FKs reference rows that exist.
//
// The planted structure is the paper-like part: NumGroups loyalist
// groups, scattered across the customer table, each buying 8-12
// distinct products of their group's brand. Planted-brand products are
// suppressed to 2% of their natural weight in the random purchase
// stream and carry a reserved tag no other product gets, so the
// customer↔brand and customer↔tag association strengths separate the
// group cleanly from the background — a selective entity class an
// example-driven discovery can recover, like the paper's "actors in
// ≥3 comedies".
func GenerateGen(cfg GenConfig) *Gen {
	cfg = normalizeGen(cfg)

	rng := rand.New(rand.NewSource(cfg.Seed))
	out := &Gen{Cfg: cfg, LoyalBrand: brandName(0)}
	db := relation.NewDatabase("gen")
	out.DB = db

	// --- Dimension (property) relations -----------------------------
	addDim := func(name string, values []string) {
		r := relation.New(name,
			relation.Col("id", relation.Int),
			relation.Col("name", relation.String),
		).SetPrimaryKey("id")
		for i, v := range values {
			r.MustAppend(relation.IntVal(int64(i)), relation.StringVal(v))
		}
		db.AddRelation(r)
		db.MarkProperty(name)
	}
	brands := make([]string, cfg.NumBrands)
	for i := range brands {
		brands[i] = brandName(i)
	}
	tags := make([]string, cfg.NumTags)
	for i := range tags {
		tags[i] = tagName(i)
	}
	addDim("region", dimValues(genRegionBase, "Region", cfg.NumRegions))
	addDim("segment", dimValues(genSegmentBase, "Segment", cfg.NumSegments))
	addDim("brand", brands)
	addDim("tag", tags)
	addDim("channel", dimValues(genChannelBase, "Channel", cfg.NumChannels))

	// Planted loyalist ids and their group/member coordinates.
	loyalOrd := make(map[int]int) // customer id -> member index j
	out.Groups = make([][]int64, cfg.NumGroups)
	for g := 0; g < cfg.NumGroups; g++ {
		for j := 0; j < cfg.GroupSize; j++ {
			id := loyalistID(cfg, g, j)
			loyalOrd[id] = j
			out.Groups[g] = append(out.Groups[g], int64(id))
		}
	}
	out.Loyalists = out.Groups[0]

	// --- customer ----------------------------------------------------
	customer := relation.New("customer",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("age", relation.Int),
		relation.Col("region_id", relation.Int),
		relation.Col("segment_id", relation.Int),
	).SetPrimaryKey("id").
		AddForeignKey("region_id", "region", "id").
		AddForeignKey("segment_id", "segment", "id")
	regionW := cumulate(zipfWeights(cfg.NumRegions, cfg.Skew))
	segmentW := cumulate(zipfWeights(cfg.NumSegments, 0.8))
	for i := 0; i < cfg.NumCustomers; i++ {
		age := 18 + rng.Intn(63)
		if j, planted := loyalOrd[i]; planted {
			age = loyalistAge(j)
		}
		customer.MustAppend(
			relation.IntVal(int64(i)),
			relation.StringVal(personName(i)),
			relation.IntVal(int64(age)),
			relation.IntVal(int64(weightedPick(rng, regionW))),
			relation.IntVal(int64(weightedPick(rng, segmentW))),
		)
	}
	db.AddRelation(customer)
	db.MarkEntity("customer")

	// --- product -----------------------------------------------------
	product := relation.New("product",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("price", relation.Float),
		relation.Col("brand_id", relation.Int),
	).SetPrimaryKey("id").AddForeignKey("brand_id", "brand", "id")
	brandW := cumulate(zipfWeights(cfg.NumBrands, cfg.Skew))
	// brandOf[p] is product p's brand; groupProducts[g] collects each
	// planted brand's shelf so the planted purchases reference real rows.
	brandOf := make([]int, cfg.NumProducts)
	groupProducts := make([][]int, cfg.NumGroups)
	for i := 0; i < cfg.NumProducts; i++ {
		b := weightedPick(rng, brandW)
		if i%97 < cfg.NumGroups {
			b = i % 97 // guarantee every planted brand a shelf at any skew
		}
		brandOf[i] = b
		if b < cfg.NumGroups {
			groupProducts[b] = append(groupProducts[b], i)
		}
		price := float64(1+rng.Intn(49900)) / 100.0
		product.MustAppend(
			relation.IntVal(int64(i)),
			relation.StringVal(productName(i)),
			relation.FloatVal(price),
			relation.IntVal(int64(b)),
		)
	}
	db.AddRelation(product)
	db.MarkEntity("product")

	// --- producttotag ------------------------------------------------
	// Tags 0..NumGroups-1 are reserved for the planted brands: the
	// random assignment never picks them, and every planted-brand
	// product carries its group's tag — so the customer↔tag association
	// separates the loyalist groups exactly like customer↔brand does.
	pt := relation.New("producttotag",
		relation.Col("product_id", relation.Int),
		relation.Col("tag_id", relation.Int),
	).AddForeignKey("product_id", "product", "id").AddForeignKey("tag_id", "tag", "id")
	tagWeights := zipfWeights(cfg.NumTags, 0.9)
	for g := 0; g < cfg.NumGroups; g++ {
		tagWeights[g] = 0
	}
	renormalize(tagWeights)
	tagW := cumulate(tagWeights)
	for p := 0; p < cfg.NumProducts; p++ {
		if brandOf[p] < cfg.NumGroups {
			pt.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64(brandOf[p])))
		}
		n := 1 + rng.Intn(cfg.TagsPerProduct*2-1)
		ts := map[int]struct{}{}
		for len(ts) < n {
			ts[weightedPick(rng, tagW)] = struct{}{}
		}
		for _, tg := range slices.Sorted(maps.Keys(ts)) {
			pt.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64(tg)))
		}
	}
	db.AddRelation(pt)

	// --- purchase (the fact table) -----------------------------------
	purchase := relation.New("purchase",
		relation.Col("customer_id", relation.Int),
		relation.Col("product_id", relation.Int),
		relation.Col("channel_id", relation.Int),
	).AddForeignKey("customer_id", "customer", "id").
		AddForeignKey("product_id", "product", "id").
		AddForeignKey("channel_id", "channel", "id")
	// Background stream: Zipf-skewed popularity on both sides, shuffled
	// so activity is independent of the id ranges the plants use. The
	// customer side uses a mild exponent — activity varies a few-fold,
	// not by orders of magnitude — so the planted loyalists' purchase
	// volume sits in the far tail of the background distribution.
	// Loyalists draw NO background purchases and planted-brand products
	// are suppressed to 2% of their natural weight: the planted classes
	// must be separated by their associations, not diluted into the
	// background head.
	customerWeights := zipfWeights(cfg.NumCustomers, 0.15)
	rng.Shuffle(len(customerWeights), func(i, j int) {
		customerWeights[i], customerWeights[j] = customerWeights[j], customerWeights[i]
	})
	for id := range loyalOrd {
		customerWeights[id] = 0
	}
	renormalize(customerWeights)
	productWeights := zipfWeights(cfg.NumProducts, cfg.Skew)
	rng.Shuffle(len(productWeights), func(i, j int) {
		productWeights[i], productWeights[j] = productWeights[j], productWeights[i]
	})
	for p, b := range brandOf {
		if b < cfg.NumGroups {
			productWeights[p] *= 0.02
		}
	}
	renormalize(productWeights)
	// The last NumGroups channels are the groups' boutique channels:
	// zero background weight, used exclusively by the planted purchases.
	channelWeights := zipfWeights(cfg.NumChannels, 0.7)
	for g := 0; g < cfg.NumGroups; g++ {
		channelWeights[cfg.NumChannels-1-g] = 0
	}
	renormalize(channelWeights)
	customerW, productW, channelW := cumulate(customerWeights), cumulate(productWeights), cumulate(channelWeights)
	buy := func(c, p int64, ch int) {
		purchase.MustAppend(relation.IntVal(c), relation.IntVal(p), relation.IntVal(int64(ch)))
	}
	for i := 0; i < cfg.NumFacts; i++ {
		buy(int64(weightedPick(rng, customerW)),
			int64(weightedPick(rng, productW)),
			weightedPick(rng, channelW))
	}

	// Planted purchases: each member of group g buys 25-35 distinct
	// products of brand g through the group's boutique channel — strong
	// customer↔brand, customer↔tag, and customer↔channel associations
	// at GroupSize/NumCustomers selectivity, with a purchase volume deep
	// in the background tail so the purchase-count association separates
	// the class too.
	for g := 0; g < cfg.NumGroups; g++ {
		shelf := groupProducts[g]
		ch := cfg.NumChannels - 1 - g
		for _, c := range out.Groups[g] {
			k := 25 + rng.Intn(11)
			if k > len(shelf) {
				k = len(shelf)
			}
			for _, pi := range sampleDistinct(rng, len(shelf), k) {
				buy(c, int64(shelf[pi]), ch)
			}
		}
	}
	db.AddRelation(purchase)

	return out
}

// GenExampleSets derives the benchmark example sets for a generated
// database as a pure function of its config — prefixes of each planted
// loyalist group at several |E| — so a bench run that loads a fixture
// snapshot can reconstruct the workload without regenerating the
// dataset. Every set is a meaningful entity class (the paper's usage:
// a user exemplifies a concept, not random tuples), and names are
// unique by construction (personName is injective), so every example
// resolves unambiguously.
func GenExampleSets(cfg GenConfig) [][]string {
	cfg = normalizeGen(cfg)
	var sets [][]string
	for g := 0; g < cfg.NumGroups; g++ {
		sizes := []int{4, 8}
		if g == 0 {
			sizes = []int{4, 8, 12}
		}
		for _, k := range sizes {
			if k > cfg.GroupSize {
				continue
			}
			ex := make([]string, 0, k)
			for j := 0; j < k; j++ {
				ex = append(ex, personName(loyalistID(cfg, g, j)))
			}
			sets = append(sets, ex)
		}
	}
	return sets
}
