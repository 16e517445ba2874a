// Package datagen builds the synthetic datasets of the evaluation:
// an IMDb-like database (15 relations, Fig 2 schema, with the sm/bs/bd
// size variants of Appendix D.1), a DBLP-like database (14 relations),
// and an Adult-like census table (1 relation). The real datasets are not
// available offline; these generators reproduce their schema, skew
// (Zipfian popularity), and the planted structures the 41 benchmark
// queries need — see DESIGN.md §3 for the substitution rationale.
//
// All generation is deterministic given a seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// zipfWeights returns n weights following a Zipf-like distribution with
// exponent s, normalized to sum 1; used to skew genre/venue/actor
// popularity the way real catalogs are skewed.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1.0 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// cdf is a vector of non-negative weights (which must sum to ~1)
// accumulated once: cdf[i] is w[0]+…+w[i], summed in order.
type cdf []float64

func cumulate(weights []float64) cdf {
	c := make(cdf, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w
		c[i] = acc
	}
	return c
}

// weightedPick draws an index according to the weights c accumulates.
func weightedPick(rng *rand.Rand, c cdf) int { return search(c, rng.Float64()) }

// search returns the first index whose cumulative weight exceeds r, by
// binary search, or the last when rounding leaves r above them all. A
// variable so a test can make every generator draw through a linear
// scan instead.
var search = func(c cdf, r float64) int {
	return min(sort.Search(len(c), func(i int) bool { return r < c[i] }), len(c)-1)
}

// sampleDistinct draws k distinct ints from [0, n).
func sampleDistinct(rng *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := rng.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

var firstNames = []string{
	"James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
	"Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
	"Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Eddie",
	"Arnold", "Sylvester", "Dwayne", "Robin", "Jim", "Nicole", "Meryl",
	"Clint", "Audrey", "Grace", "Marlon", "Humphrey", "Ingrid", "Cary",
}

var lastNames = []string{
	"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
	"Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
	"Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson", "Martin",
	"Murphy", "Carrey", "Stallone", "Schwarzenegger", "Streep", "Eastwood",
	"Kidman", "Cruise", "Hanks", "Roberts", "Stone", "Pacino", "Foster",
}

// personName produces a unique human-ish name for index i.
func personName(i int) string {
	f := firstNames[i%len(firstNames)]
	l := lastNames[(i/len(firstNames))%len(lastNames)]
	gen := i / (len(firstNames) * len(lastNames))
	if gen == 0 {
		return fmt.Sprintf("%s %s", f, l)
	}
	return fmt.Sprintf("%s %s %d", f, l, gen)
}

var titleAdjectives = []string{
	"Dark", "Silent", "Golden", "Lost", "Broken", "Final", "Hidden",
	"Eternal", "Savage", "Crimson", "Frozen", "Burning", "Distant",
	"Sacred", "Midnight", "Ancient", "Electric", "Velvet", "Iron", "Wild",
}

var titleNouns = []string{
	"Horizon", "Empire", "Journey", "Legacy", "Whisper", "Storm",
	"Kingdom", "Shadow", "Promise", "Destiny", "Echo", "River", "Garden",
	"Voyage", "Secret", "Dream", "Mirror", "Flame", "Harvest", "Signal",
}

// movieTitle produces a unique title for index i.
func movieTitle(i int) string {
	a := titleAdjectives[i%len(titleAdjectives)]
	n := titleNouns[(i/len(titleAdjectives))%len(titleNouns)]
	gen := i / (len(titleAdjectives) * len(titleNouns))
	if gen == 0 {
		return fmt.Sprintf("The %s %s", a, n)
	}
	return fmt.Sprintf("The %s %s %d", a, n, gen)
}

// paperTitle produces a unique publication title for index i.
func paperTitle(i int) string {
	a := titleAdjectives[i%len(titleAdjectives)]
	n := titleNouns[(i/len(titleAdjectives))%len(titleNouns)]
	return fmt.Sprintf("On the %s %s of Data Systems %d", a, n, i)
}

// decadeOf buckets a year into its decade label ("1990s").
func decadeOf(year int) string {
	return fmt.Sprintf("%d0s", year/10)
}
