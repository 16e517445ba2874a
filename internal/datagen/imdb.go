package datagen

import (
	"maps"
	"math/rand"
	"slices"

	"squid/internal/relation"
)

// IMDbConfig scales the synthetic IMDb-like database. The defaults keep
// the whole evaluation laptop-scale while preserving the paper's
// cardinality ratios (persons ≫ movies ≫ companies, castinfo the largest
// fact table).
type IMDbConfig struct {
	Seed       int64
	NumPersons int
	NumMovies  int
	NumCompany int
}

// DefaultIMDbConfig returns the scale used by the experiment harness.
func DefaultIMDbConfig() IMDbConfig {
	return IMDbConfig{Seed: 20190625, NumPersons: 8000, NumMovies: 2500, NumCompany: 120}
}

// IMDb bundles the generated database with the planted ground-truth
// structures the benchmark queries and case studies reference.
type IMDb struct {
	DB  *relation.Database
	Cfg IMDbConfig

	// Planted structure indexes (entity ids).
	BlockbusterID    int64   // IQ1: a movie with a very large cast
	BlockbusterTitle string  //
	TrilogyIDs       []int64 // IQ2: three movies sharing a core cast
	TrilogyTitles    []string
	TrilogyCast      []int64 // persons in all three parts
	DuoA, DuoB       int64   // IQ5: two stars with many co-appearances
	DuoMovies        []int64 // movies with both
	DirectorID       int64   // IQ6: director who also acts in own movies
	DirectorName     string
	DirectedMovies   []int64
	ProducerCompany  string  // IQ12/IQ13/IQ16 company name
	Comedians        []int64 // case study (a): latent funny-actor class
	ActionStars      []int64 // Example 1.2 ET1 analogue
	SciFi2000s       []int64 // case study (b): 2000s Sci-Fi movie ids
	AmbiguousTitle   string  // Fig 12: title shared by several movies
	AmbiguousIDs     []int64
	AmbiguousNames   []string // Fig 12: person names shared by duplicates

	// Popularity is a per-person popularity score (number of credits),
	// the basis of the case-study popularity masks (Appendix D
	// footnote 14).
	Popularity map[int64]int
}

// Genre ids used by the generator (position in the genres slice).
var imdbGenres = []string{
	"Comedy", "Drama", "Action", "SciFi", "Thriller", "Horror",
	"Romance", "Animation", "Documentary", "Crime", "Fantasy", "Mystery",
	"Adventure", "Family", "War", "Western", "Musical", "Sport",
}

var imdbCountries = []string{
	"USA", "UK", "Canada", "France", "Germany", "India", "Japan",
	"Italy", "Russia", "Spain", "Australia", "China", "Brazil", "Mexico",
}

var imdbLanguages = []string{
	"English", "French", "German", "Hindi", "Japanese", "Italian",
	"Russian", "Spanish", "Mandarin", "Portuguese",
}

var imdbCertificates = []string{"G", "PG", "PG-13", "R", "NC-17"}

var imdbRoles = []string{"Actor", "Director", "Producer", "Writer", "Cinematographer"}

var imdbKeywords = []string{
	"hero", "revenge", "love", "space", "war", "family", "heist",
	"robot", "magic", "detective", "road-trip", "sports", "politics",
	"music", "courtroom", "zombie", "time-travel", "high-school",
}

var imdbAwards = []string{
	"Academy Award", "Golden Globe", "BAFTA", "Screen Actors Guild",
	"Critics Choice", "Saturn Award",
}

// GenerateIMDb builds the 15-relation IMDb-like database with all
// planted structures. Scales below 600 persons / 200 movies are clamped
// so every planted structure fits.
func GenerateIMDb(cfg IMDbConfig) *IMDb {
	if cfg.NumPersons < 600 {
		cfg.NumPersons = 600
	}
	if cfg.NumMovies < 200 {
		cfg.NumMovies = 200
	}
	if cfg.NumCompany < 10 {
		cfg.NumCompany = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := &IMDb{Cfg: cfg, Popularity: make(map[int64]int)}
	db := relation.NewDatabase("imdb")
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
	addDim("genre", imdbGenres)
	addDim("country", imdbCountries)
	addDim("language", imdbLanguages)
	addDim("role", imdbRoles)
	addDim("keyword", imdbKeywords)
	addDim("award", imdbAwards)

	// --- person ------------------------------------------------------
	person := relation.New("person",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("gender", relation.String),
		relation.Col("birth_year", relation.Int),
		relation.Col("country_id", relation.Int),
	).SetPrimaryKey("id").AddForeignKey("country_id", "country", "id")
	countryW := cumulate(zipfWeights(len(imdbCountries), 1.1))
	for i := 0; i < cfg.NumPersons; i++ {
		gender := "Male"
		if rng.Intn(100) < 45 {
			gender = "Female"
		}
		person.MustAppend(
			relation.IntVal(int64(i)),
			relation.StringVal(personName(i)),
			relation.StringVal(gender),
			relation.IntVal(int64(1930+rng.Intn(75))),
			relation.IntVal(int64(weightedPick(rng, countryW))),
		)
	}
	db.AddRelation(person)
	db.MarkEntity("person")

	// --- movie -------------------------------------------------------
	movie := relation.New("movie",
		relation.Col("id", relation.Int),
		relation.Col("title", relation.String),
		relation.Col("year", relation.Int),
		relation.Col("decade", relation.String),
		relation.Col("certificate", relation.String),
		relation.Col("language_id", relation.Int),
	).SetPrimaryKey("id").AddForeignKey("language_id", "language", "id")
	langW := cumulate(zipfWeights(len(imdbLanguages), 1.3))
	certW := cumulate(zipfWeights(len(imdbCertificates), 0.6))
	years := make([]int, cfg.NumMovies)
	for i := 0; i < cfg.NumMovies; i++ {
		year := 1960 + rng.Intn(60) // 1960-2019
		years[i] = year
		movie.MustAppend(
			relation.IntVal(int64(i)),
			relation.StringVal(movieTitle(i)),
			relation.IntVal(int64(year)),
			relation.StringVal(decadeOf(year)),
			relation.StringVal(imdbCertificates[weightedPick(rng, certW)]),
			relation.IntVal(int64(weightedPick(rng, langW))),
		)
	}
	db.AddRelation(movie)
	db.MarkEntity("movie")

	// --- company -----------------------------------------------------
	company := relation.New("company",
		relation.Col("id", relation.Int),
		relation.Col("name", relation.String),
		relation.Col("country_id", relation.Int),
	).SetPrimaryKey("id").AddForeignKey("country_id", "country", "id")
	for i := 0; i < cfg.NumCompany; i++ {
		name := "Studio " + movieTitle(i * 7)[4:]
		if i == 0 {
			name = "Mouse House Pictures" // the Walt-Disney-like producer
			out.ProducerCompany = name
		}
		company.MustAppend(
			relation.IntVal(int64(i)),
			relation.StringVal(name),
			relation.IntVal(int64(weightedPick(rng, countryW))),
		)
	}
	db.AddRelation(company)
	db.MarkEntity("company")

	// --- movietogenre ------------------------------------------------
	mg := relation.New("movietogenre",
		relation.Col("movie_id", relation.Int),
		relation.Col("genre_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("genre_id", "genre", "id")
	genreW := cumulate(zipfWeights(len(imdbGenres), 0.9))
	movieGenres := make([][]int, cfg.NumMovies)
	for m := 0; m < cfg.NumMovies; m++ {
		n := 1 + rng.Intn(3)
		gs := map[int]struct{}{}
		for len(gs) < n {
			gs[weightedPick(rng, genreW)] = struct{}{}
		}
		for _, g := range slices.Sorted(maps.Keys(gs)) {
			movieGenres[m] = append(movieGenres[m], g)
			mg.MustAppend(relation.IntVal(int64(m)), relation.IntVal(int64(g)))
		}
	}
	// Plant the 2000s Sci-Fi class: movies with year in [2000,2009] and
	// index ≡ 3 mod 7 get the SciFi genre (id 3) if not already present.
	scifi := indexOf(imdbGenres, "SciFi")
	for m := 0; m < cfg.NumMovies; m++ {
		if years[m] >= 2000 && years[m] <= 2009 && m%7 == 3 {
			if !containsInt(movieGenres[m], scifi) {
				movieGenres[m] = append(movieGenres[m], scifi)
				mg.MustAppend(relation.IntVal(int64(m)), relation.IntVal(int64(scifi)))
			}
			out.SciFi2000s = append(out.SciFi2000s, int64(m))
		} else if years[m] >= 2000 && years[m] <= 2009 && containsInt(movieGenres[m], scifi) {
			out.SciFi2000s = append(out.SciFi2000s, int64(m))
		}
	}
	db.AddRelation(mg)

	// --- movietocountry ---------------------------------------------
	mc := relation.New("movietocountry",
		relation.Col("movie_id", relation.Int),
		relation.Col("country_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("country_id", "country", "id")
	usa := indexOf(imdbCountries, "USA")
	movieCountries := make([][]int, cfg.NumMovies)
	for m := 0; m < cfg.NumMovies; m++ {
		// 55% of movies released in USA (statistically common property,
		// the IQ4/IQ11 slow-convergence driver), plus 0-2 others.
		cs := map[int]struct{}{}
		if rng.Intn(100) < 55 {
			cs[usa] = struct{}{}
		}
		for extra := rng.Intn(3); extra > 0 && len(cs) < 3; extra-- {
			cs[weightedPick(rng, countryW)] = struct{}{}
		}
		if len(cs) == 0 {
			cs[weightedPick(rng, countryW)] = struct{}{}
		}
		for _, c := range slices.Sorted(maps.Keys(cs)) {
			movieCountries[m] = append(movieCountries[m], c)
			mc.MustAppend(relation.IntVal(int64(m)), relation.IntVal(int64(c)))
		}
	}
	db.AddRelation(mc)

	// --- movietocompany ----------------------------------------------
	mcomp := relation.New("movietocompany",
		relation.Col("movie_id", relation.Int),
		relation.Col("company_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("company_id", "company", "id")
	compW := cumulate(zipfWeights(cfg.NumCompany, 1.0))
	for m := 0; m < cfg.NumMovies; m++ {
		mcomp.MustAppend(relation.IntVal(int64(m)), relation.IntVal(int64(weightedPick(rng, compW))))
	}
	db.AddRelation(mcomp)

	// --- movietokeyword ----------------------------------------------
	mk := relation.New("movietokeyword",
		relation.Col("movie_id", relation.Int),
		relation.Col("keyword_id", relation.Int),
	).AddForeignKey("movie_id", "movie", "id").AddForeignKey("keyword_id", "keyword", "id")
	kwW := cumulate(zipfWeights(len(imdbKeywords), 0.8))
	for m := 0; m < cfg.NumMovies; m++ {
		n := 1 + rng.Intn(4)
		ks := map[int]struct{}{}
		for len(ks) < n {
			ks[weightedPick(rng, kwW)] = struct{}{}
		}
		for _, k := range slices.Sorted(maps.Keys(ks)) {
			mk.MustAppend(relation.IntVal(int64(m)), relation.IntVal(int64(k)))
		}
	}
	db.AddRelation(mk)

	// --- castinfo (the big fact table) --------------------------------
	ci := relation.New("castinfo",
		relation.Col("person_id", relation.Int),
		relation.Col("movie_id", relation.Int),
		relation.Col("role_id", relation.Int),
	).AddForeignKey("person_id", "person", "id").
		AddForeignKey("movie_id", "movie", "id").
		AddForeignKey("role_id", "role", "id")
	actorRole := indexOf(imdbRoles, "Actor")
	directorRole := indexOf(imdbRoles, "Director")
	// Popularity skew, shuffled so that popularity is independent of the
	// person id (otherwise the low ids — which double as ambiguity
	// plants — would all be mega-stars sharing hundreds of credits).
	shuffled := zipfWeights(cfg.NumPersons, 0.7)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	personW := cumulate(shuffled)
	cast := func(p, m int64, role int) {
		ci.MustAppend(relation.IntVal(p), relation.IntVal(m), relation.IntVal(int64(role)))
		out.Popularity[p]++
	}
	// Generic casting: each movie gets 6-18 actors plus a director.
	for m := 0; m < cfg.NumMovies; m++ {
		n := 6 + rng.Intn(13)
		seen := map[int]struct{}{}
		for len(seen) < n {
			p := weightedPick(rng, personW)
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			cast(int64(p), int64(m), actorRole)
		}
		cast(int64(weightedPick(rng, personW)), int64(m), directorRole)
	}

	// Planted: comedians (case study a / Example 1.3). Persons
	// 10..10+K-1 appear in many comedies.
	comedyGenre := indexOf(imdbGenres, "Comedy")
	comedyMovies := moviesWithGenre(movieGenres, comedyGenre)
	numComedians := cfg.NumPersons / 50
	for i := 0; i < numComedians; i++ {
		p := int64(10 + i)
		out.Comedians = append(out.Comedians, p)
		for _, m := range sampleDistinct(rng, len(comedyMovies), 14+rng.Intn(8)) {
			cast(p, int64(comedyMovies[m]), actorRole)
		}
	}
	// Planted: action stars (ET1 analogue), starting halfway through the
	// person id range.
	actionGenre := indexOf(imdbGenres, "Action")
	actionMovies := moviesWithGenre(movieGenres, actionGenre)
	actionBase := cfg.NumPersons / 2
	for i := 0; i < numComedians/2; i++ {
		p := int64(actionBase + i)
		out.ActionStars = append(out.ActionStars, p)
		for _, m := range sampleDistinct(rng, len(actionMovies), 12+rng.Intn(8)) {
			cast(p, int64(actionMovies[m]), actorRole)
		}
	}

	// Planted: blockbuster with a huge cast (IQ1).
	out.BlockbusterID = 0
	out.BlockbusterTitle = movieTitle(0)
	blockCast := sampleDistinct(rng, cfg.NumPersons, 110)
	for _, p := range blockCast {
		cast(int64(p), out.BlockbusterID, actorRole)
	}

	// Planted: trilogy with 20 shared actors (IQ2): movies 1, 2, 3.
	out.TrilogyIDs = []int64{1, 2, 3}
	for _, id := range out.TrilogyIDs {
		out.TrilogyTitles = append(out.TrilogyTitles, movieTitle(int(id)))
	}
	shared := sampleDistinct(rng, cfg.NumPersons, 20)
	for _, p := range shared {
		out.TrilogyCast = append(out.TrilogyCast, int64(p))
		for _, m := range out.TrilogyIDs {
			cast(int64(p), m, actorRole)
		}
	}
	// Each part also gets its own extra cast so intersection matters.
	for _, m := range out.TrilogyIDs {
		for _, p := range sampleDistinct(rng, cfg.NumPersons, 15) {
			cast(int64(p), m, actorRole)
		}
	}

	// Planted: the co-starring duo (IQ5) shares 12 movies (ids 50..61).
	out.DuoA, out.DuoB = int64(cfg.NumPersons/4), int64(cfg.NumPersons/4+1)
	for m := 50; m < 62; m++ {
		out.DuoMovies = append(out.DuoMovies, int64(m))
		cast(out.DuoA, int64(m), actorRole)
		cast(out.DuoB, int64(m), actorRole)
	}

	// Planted: director who also acts (IQ6) directs movies 100..135 and
	// acts in most of them.
	out.DirectorID = int64(cfg.NumPersons/4 + 2)
	out.DirectorName = personName(int(out.DirectorID))
	for m := 100; m < 136; m++ {
		out.DirectedMovies = append(out.DirectedMovies, int64(m))
		cast(out.DirectorID, int64(m), directorRole)
		if m%4 != 0 { // acts in 75% of his own movies
			cast(out.DirectorID, int64(m), actorRole)
		}
	}
	db.AddRelation(ci)

	// --- persontoaward -----------------------------------------------
	pa := relation.New("persontoaward",
		relation.Col("person_id", relation.Int),
		relation.Col("award_id", relation.Int),
	).AddForeignKey("person_id", "person", "id").AddForeignKey("award_id", "award", "id")
	awardW := cumulate(zipfWeights(len(imdbAwards), 0.7))
	for i := 0; i < cfg.NumPersons/20; i++ {
		p := weightedPick(rng, personW)
		pa.MustAppend(relation.IntVal(int64(p)), relation.IntVal(int64(weightedPick(rng, awardW))))
	}
	db.AddRelation(pa)

	// --- ambiguity plants (Fig 12) -----------------------------------
	// Several movies share one title (appended rows), and a handful of
	// person names are duplicated: rename person i+1 to person i's name
	// for a few planted pairs far apart in attribute space.
	out.AmbiguousTitle = "The Sinking Voyage"
	ambYears := []int{1915, 1943, 1969, 2005}
	for k, year := range ambYears {
		id := int64(cfg.NumMovies + k)
		movie.MustAppend(
			relation.IntVal(id),
			relation.StringVal(out.AmbiguousTitle),
			relation.IntVal(int64(year)),
			relation.StringVal(decadeOf(year)),
			relation.StringVal("PG"),
			relation.IntVal(int64(weightedPick(rng, langW))),
		)
		out.AmbiguousIDs = append(out.AmbiguousIDs, id)
		// Only the 2005 copy is Sci-Fi — it belongs to the 2000s
		// Sci-Fi intent; the older namesakes get a different genre so
		// the wrong mapping visibly hurts accuracy (Fig 12).
		if year >= 2000 {
			mg.MustAppend(relation.IntVal(id), relation.IntVal(int64(scifi)))
			out.SciFi2000s = append(out.SciFi2000s, id)
		} else {
			mg.MustAppend(relation.IntVal(id), relation.IntVal(int64(indexOf(imdbGenres, "War"))))
		}
		mc.MustAppend(relation.IntVal(id), relation.IntVal(int64(usa)))
	}
	// Duplicate person names: persons 0..9 (ordinary, low-credit rows
	// that precede the comedians in index order) take the names of the
	// first comedians, making those names ambiguous — and making the
	// naive first-match resolution pick the wrong, non-comedian entity
	// (the Fig 12 setup).
	nameCol := person.Column("name")
	for k := 0; k < 10 && k < len(out.Comedians); k++ {
		origRow := int(out.Comedians[k]) // comedians start at row 10
		name := nameCol.Str(origRow)
		_ = nameCol.Set(k, relation.StringVal(name))
		out.AmbiguousNames = append(out.AmbiguousNames, name)
	}

	return out
}

func indexOf(xs []string, v string) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func moviesWithGenre(movieGenres [][]int, genre int) []int {
	var out []int
	for m, gs := range movieGenres {
		if containsInt(gs, genre) {
			out = append(out, m)
		}
	}
	return out
}
