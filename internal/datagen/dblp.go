package datagen

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"squid/internal/relation"
)

// DBLPConfig scales the synthetic DBLP-like database.
type DBLPConfig struct {
	Seed      int64
	NumAuthor int
	NumPubs   int
}

// DefaultDBLPConfig returns the scale used by the experiment harness.
func DefaultDBLPConfig() DBLPConfig {
	return DBLPConfig{Seed: 1933, NumAuthor: 3000, NumPubs: 6000}
}

// DBLP bundles the generated database with planted ground truth.
type DBLP struct {
	DB  *relation.Database
	Cfg DBLPConfig

	// Prolific are the planted heavy database-venue publishers (case
	// study c).
	Prolific []int64
	// Trio are three authors with many joint publications (DQ4).
	Trio      []int64
	TrioNames []string
	TrioPubs  []int64
	// DualAffil are authors collaborating with both planted
	// affiliations (DQ1).
	DualAffil      []int64
	AffilA, AffilB string
	// PubCount is per-author publication count (popularity).
	PubCount map[int64]int
}

var dblpVenues = []string{
	"SIGMOD", "VLDB", "ICDE", "KDD", "SIGIR", "WWW", "CIKM", "EDBT",
	"PODS", "ICML", "NIPS", "AAAI", "ACL", "SOSP", "OSDI", "NSDI",
}

var dblpAreas = []string{
	"Databases", "Data Mining", "Information Retrieval", "Machine Learning",
	"Systems", "Networks", "NLP", "Theory",
}

var dblpAffiliations = []string{
	"U Washington", "Microsoft Research Redmond", "UMass Amherst", "MIT",
	"Stanford", "Berkeley", "CMU", "Wisconsin", "Google Research",
	"IBM Research", "ETH Zurich", "EPFL",
}

var dblpKeywords = []string{
	"query-processing", "indexing", "transactions", "learning",
	"ranking", "graphs", "streams", "privacy", "provenance", "crowdsourcing",
}

var dblpPubTypes = []string{"conference", "journal", "workshop", "demo"}

var dblpAwardsList = []string{"Best Paper", "Test of Time", "Dissertation Award"}

// GenerateDBLP builds the 14-relation DBLP-like database.
func GenerateDBLP(cfg DBLPConfig) *DBLP {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := &DBLP{Cfg: cfg, PubCount: make(map[int64]int)}
	db := relation.NewDatabase("dblp")
	out.DB = db

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
	addDim("venue", dblpVenues)
	addDim("area", dblpAreas)
	addDim("affiliation", dblpAffiliations)
	addDim("country", imdbCountries)
	addDim("keyword", dblpKeywords)
	addDim("pubtype", dblpPubTypes)
	addDim("award", dblpAwardsList)

	// --- author -------------------------------------------------------
	author := relation.New("author",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("affiliation_id", relation.Int),
		relation.Col("country_id", relation.Int),
	).SetPrimaryKey("id").
		AddForeignKey("affiliation_id", "affiliation", "id").
		AddForeignKey("country_id", "country", "id")
	affW := cumulate(zipfWeights(len(dblpAffiliations), 0.8))
	countryW := cumulate(zipfWeights(len(imdbCountries), 1.2))
	for i := 0; i < cfg.NumAuthor; i++ {
		author.MustAppend(
			relation.IntVal(int64(i)),
			relation.StringVal("Dr "+personName(i)),
			relation.IntVal(int64(weightedPick(rng, affW))),
			relation.IntVal(int64(weightedPick(rng, countryW))),
		)
	}
	db.AddRelation(author)
	db.MarkEntity("author")

	// --- publication ---------------------------------------------------
	publication := relation.New("publication",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
		relation.Col("year", relation.Int),
		relation.Col("venue_id", relation.Int),
		relation.Col("pubtype_id", relation.Int),
	).SetPrimaryKey("id").
		AddForeignKey("venue_id", "venue", "id").
		AddForeignKey("pubtype_id", "pubtype", "id")
	venueW := cumulate(zipfWeights(len(dblpVenues), 0.7))
	typeW := cumulate(zipfWeights(len(dblpPubTypes), 1.0))
	pubVenue := make([]int, cfg.NumPubs)
	for i := 0; i < cfg.NumPubs; i++ {
		v := weightedPick(rng, venueW)
		pubVenue[i] = v
		publication.MustAppend(
			relation.IntVal(int64(i)),
			relation.StringVal(paperTitle(i)),
			relation.IntVal(int64(2000+rng.Intn(16))), // 2000-2015 like the paper
			relation.IntVal(int64(v)),
			relation.IntVal(int64(weightedPick(rng, typeW))),
		)
	}
	db.AddRelation(publication)
	db.MarkEntity("publication")

	// --- pubtoarea, pubtokeyword ----------------------------------------
	pta := relation.New("pubtoarea",
		relation.Col("pub_id", relation.Int),
		relation.Col("area_id", relation.Int),
	).AddForeignKey("pub_id", "publication", "id").AddForeignKey("area_id", "area", "id")
	areaW := cumulate(zipfWeights(len(dblpAreas), 0.8))
	for i := 0; i < cfg.NumPubs; i++ {
		pta.MustAppend(relation.IntVal(int64(i)), relation.IntVal(int64(weightedPick(rng, areaW))))
	}
	db.AddRelation(pta)

	ptk := relation.New("pubtokeyword",
		relation.Col("pub_id", relation.Int),
		relation.Col("keyword_id", relation.Int),
	).AddForeignKey("pub_id", "publication", "id").AddForeignKey("keyword_id", "keyword", "id")
	kwW := cumulate(zipfWeights(len(dblpKeywords), 0.8))
	for i := 0; i < cfg.NumPubs; i++ {
		for _, k := range sampleDistinct(rng, len(dblpKeywords), 1+rng.Intn(3)) {
			_ = k
		}
		n := 1 + rng.Intn(3)
		ks := map[int]struct{}{}
		for len(ks) < n {
			ks[weightedPick(rng, kwW)] = struct{}{}
		}
		for _, k := range slices.Sorted(maps.Keys(ks)) {
			ptk.MustAppend(relation.IntVal(int64(i)), relation.IntVal(int64(k)))
		}
	}
	db.AddRelation(ptk)

	// --- authortopub -----------------------------------------------------
	atp := relation.New("authortopub",
		relation.Col("author_id", relation.Int),
		relation.Col("pub_id", relation.Int),
	).AddForeignKey("author_id", "author", "id").AddForeignKey("pub_id", "publication", "id")
	authorW := cumulate(zipfWeights(cfg.NumAuthor, 0.8))
	pubAuthors := make([][]int64, cfg.NumPubs)
	writePub := func(a int64, p int) {
		atp.MustAppend(relation.IntVal(a), relation.IntVal(int64(p)))
		pubAuthors[p] = append(pubAuthors[p], a)
		out.PubCount[a]++
	}
	for p := 0; p < cfg.NumPubs; p++ {
		n := 1 + rng.Intn(4)
		seen := map[int]struct{}{}
		for len(seen) < n {
			a := weightedPick(rng, authorW)
			if _, dup := seen[a]; dup {
				continue
			}
			seen[a] = struct{}{}
			writePub(int64(a), p)
		}
	}
	// Planted: prolific DB researchers (authors 5..34) with many
	// SIGMOD/VLDB papers.
	sigmod, vldb := indexOf(dblpVenues, "SIGMOD"), indexOf(dblpVenues, "VLDB")
	var dbPubs []int
	for p, v := range pubVenue {
		if v == sigmod || v == vldb {
			dbPubs = append(dbPubs, p)
		}
	}
	for i := 0; i < 30; i++ {
		a := int64(5 + i)
		out.Prolific = append(out.Prolific, a)
		for _, pi := range sampleDistinct(rng, len(dbPubs), 24+rng.Intn(10)) {
			writePub(a, dbPubs[pi])
		}
	}
	// Planted: the trio with 15 joint publications (DQ4): authors
	// 200, 201, 202 on publications 100..114.
	out.Trio = []int64{200, 201, 202}
	nameCol := author.Column("name")
	for _, a := range out.Trio {
		out.TrioNames = append(out.TrioNames, nameCol.Str(int(a)))
	}
	for p := 100; p < 115; p++ {
		out.TrioPubs = append(out.TrioPubs, int64(p))
		for _, a := range out.Trio {
			writePub(a, p)
		}
	}
	db.AddRelation(atp)

	// --- collaboration (precomputed co-author affiliations, DQ1) -------
	collab := relation.New("collaboration",
		relation.Col("author_id", relation.Int),
		relation.Col("affiliation_id", relation.Int),
	).AddForeignKey("author_id", "author", "id").AddForeignKey("affiliation_id", "affiliation", "id")
	affCol := author.Column("affiliation_id")
	seenCollab := map[string]bool{}
	addCollab := func(a int64, aff int64) {
		key := fmt.Sprintf("%d-%d", a, aff)
		if seenCollab[key] {
			return
		}
		seenCollab[key] = true
		collab.MustAppend(relation.IntVal(a), relation.IntVal(aff))
	}
	for p := 0; p < cfg.NumPubs; p++ {
		as := pubAuthors[p]
		for _, a := range as {
			for _, b := range as {
				if a == b {
					continue
				}
				addCollab(a, affCol.Int64(int(b)))
			}
		}
	}
	// Planted dual-affiliation collaborators (DQ1): authors 300..319
	// collaborate with both U Washington and MSR.
	affA, affB := indexOf(dblpAffiliations, "U Washington"), indexOf(dblpAffiliations, "Microsoft Research Redmond")
	out.AffilA, out.AffilB = dblpAffiliations[affA], dblpAffiliations[affB]
	for i := 0; i < 20; i++ {
		a := int64(300 + i)
		out.DualAffil = append(out.DualAffil, a)
		addCollab(a, int64(affA))
		addCollab(a, int64(affB))
	}
	db.AddRelation(collab)

	// --- pubtocountry ------------------------------------------------------
	// The countries of a publication's authors, materialized as a fact
	// table (real bibliographic datasets carry affiliation countries per
	// paper). This makes "publications between USA and Canada" (DQ5) an
	// existence intent over a basic fact-dimension property rather than a
	// weak (θ=1) derived association that τa would prune.
	ptc := relation.New("pubtocountry",
		relation.Col("pub_id", relation.Int),
		relation.Col("country_id", relation.Int),
	).AddForeignKey("pub_id", "publication", "id").AddForeignKey("country_id", "country", "id")
	ctyCol := author.Column("country_id")
	seenPC := map[string]bool{}
	for p := 0; p < cfg.NumPubs; p++ {
		for _, a := range pubAuthors[p] {
			cty := ctyCol.Int64(int(a))
			key := fmt.Sprintf("%d-%d", p, cty)
			if seenPC[key] {
				continue
			}
			seenPC[key] = true
			ptc.MustAppend(relation.IntVal(int64(p)), relation.IntVal(cty))
		}
	}
	db.AddRelation(ptc)

	return out
}
