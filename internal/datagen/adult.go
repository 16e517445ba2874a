package datagen

import (
	"fmt"
	"math/rand"

	"squid/internal/relation"
)

// AdultConfig scales the synthetic census table.
type AdultConfig struct {
	Seed    int64
	NumRows int
	// ScaleFactor replicates the generated rows N times with fresh ids
	// and names (the Fig 16(b) scalability knob).
	ScaleFactor int
}

// DefaultAdultConfig returns the scale used by the experiment harness.
func DefaultAdultConfig() AdultConfig {
	return AdultConfig{Seed: 4819, NumRows: 4000, ScaleFactor: 1}
}

// Adult bundles the generated single-relation census database.
type Adult struct {
	DB  *relation.Database
	Cfg AdultConfig
}

// Attribute domains modeled on the UCI Adult census schema.
var (
	adultWorkclasses = []string{
		"Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
		"Local-gov", "State-gov", "Without-pay",
	}
	adultEducations = []string{
		"Bachelors", "HS-grad", "11th", "Masters", "9th", "Some-college",
		"Assoc-acdm", "Assoc-voc", "Doctorate", "10th", "7th-8th",
	}
	adultMarital = []string{
		"Married-civ-spouse", "Divorced", "Never-married", "Separated",
		"Widowed", "Married-spouse-absent",
	}
	adultOccupations = []string{
		"Tech-support", "Craft-repair", "Other-service", "Sales",
		"Exec-managerial", "Prof-specialty", "Handlers-cleaners",
		"Machine-op-inspct", "Adm-clerical", "Farming-fishing",
		"Transport-moving", "Protective-serv",
	}
	adultRelationships = []string{
		"Wife", "Own-child", "Husband", "Not-in-family", "Other-relative",
		"Unmarried",
	}
	adultRaces = []string{
		"White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other", "Black",
	}
	adultSexes     = []string{"Male", "Female"}
	adultCountries = []string{
		"United-States", "Mexico", "Philippines", "Germany", "Canada",
		"India", "England", "Cuba", "China", "Italy",
	}
	adultIncomes = []string{"<=50K", ">50K"}
)

// GenerateAdult builds the single-relation census database.
func GenerateAdult(cfg AdultConfig) *Adult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.ScaleFactor < 1 {
		cfg.ScaleFactor = 1
	}
	db := relation.NewDatabase(fmt.Sprintf("adult_x%d", cfg.ScaleFactor))
	r := relation.New("adult",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("age", relation.Int),
		relation.Col("workclass", relation.String),
		relation.Col("fnlwgt", relation.Int),
		relation.Col("education", relation.String),
		relation.Col("maritalstatus", relation.String),
		relation.Col("occupation", relation.String),
		relation.Col("relationship", relation.String),
		relation.Col("race", relation.String),
		relation.Col("sex", relation.String),
		relation.Col("capitalgain", relation.Int),
		relation.Col("capitalloss", relation.Int),
		relation.Col("hoursperweek", relation.Int),
		relation.Col("nativecountry", relation.String),
		relation.Col("income", relation.String),
	).SetPrimaryKey("id")

	wcW := cumulate(zipfWeights(len(adultWorkclasses), 1.4))
	eduW := cumulate(zipfWeights(len(adultEducations), 0.8))
	marW := cumulate(zipfWeights(len(adultMarital), 0.9))
	occW := cumulate(zipfWeights(len(adultOccupations), 0.5))
	relW := cumulate(zipfWeights(len(adultRelationships), 0.8))
	raceW := cumulate(zipfWeights(len(adultRaces), 2.0))
	ctyW := cumulate(zipfWeights(len(adultCountries), 2.5))

	id := int64(0)
	for rep := 0; rep < cfg.ScaleFactor; rep++ {
		// Each replica reuses the same seeded value stream so scaled
		// datasets are supersets in distribution, like the paper's
		// replication of the Adult dataset.
		repRng := rand.New(rand.NewSource(cfg.Seed + int64(rep)))
		_ = rng
		for i := 0; i < cfg.NumRows; i++ {
			capGain := 0
			if repRng.Intn(100) < 9 {
				capGain = 1000 + repRng.Intn(12000)
			}
			capLoss := 0
			if repRng.Intn(100) < 5 {
				capLoss = 1400 + repRng.Intn(1200)
			}
			income := adultIncomes[0]
			if repRng.Intn(100) < 24 {
				income = adultIncomes[1]
			}
			r.MustAppend(
				relation.IntVal(id),
				relation.StringVal(fmt.Sprintf("%s #%d", personName(i), id)),
				relation.IntVal(int64(17+repRng.Intn(60))),
				relation.StringVal(adultWorkclasses[weightedPick(repRng, wcW)]),
				relation.IntVal(int64(12000+repRng.Intn(900000))),
				relation.StringVal(adultEducations[weightedPick(repRng, eduW)]),
				relation.StringVal(adultMarital[weightedPick(repRng, marW)]),
				relation.StringVal(adultOccupations[weightedPick(repRng, occW)]),
				relation.StringVal(adultRelationships[weightedPick(repRng, relW)]),
				relation.StringVal(adultRaces[weightedPick(repRng, raceW)]),
				relation.StringVal(adultSexes[repRng.Intn(2)]),
				relation.IntVal(int64(capGain)),
				relation.IntVal(int64(capLoss)),
				relation.IntVal(int64(20+repRng.Intn(60))),
				relation.StringVal(adultCountries[weightedPick(repRng, ctyW)]),
				relation.StringVal(income),
			)
			id++
		}
	}
	db.AddRelation(r)
	db.MarkEntity("adult")
	return &Adult{DB: db, Cfg: cfg}
}
