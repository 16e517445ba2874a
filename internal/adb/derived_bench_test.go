package adb

import (
	"math/rand"
	"testing"

	"squid/internal/datagen"
	"squid/internal/trace"
)

// BenchmarkDerivedStrength prices the two layouts of a derived value at
// the repository benchmark's scale (4x the default IMDb, a fresh
// build) where they meet: the dense column with the fewest pairs and the
// pair list with the most, among the person's derived values. A probe
// arm reads 4,096 strengths of scattered persons (StrengthOfCode, what
// context discovery does; ns/probe), a set arm builds the value's row
// set at θ 1 and 2 (EntityRowSetWithStrength, never kept; ns/op).
func BenchmarkDerivedStrength(b *testing.B) {
	cfg := datagen.DefaultIMDbConfig()
	cfg.NumPersons *= 4
	cfg.NumMovies *= 4
	cfg.NumCompany *= 4
	a, err := Build(datagen.GenerateIMDb(cfg).DB, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	type value struct {
		p     *DerivedProperty
		code  int32
		pairs int
	}
	var dense, list value
	info := a.Entity("person")
	for _, p := range info.Derived {
		for code, cs := range p.codes.All() {
			n := cs.pairs()
			if cs.dense && (dense.p == nil || n < dense.pairs) {
				dense = value{p, int32(code), n}
			}
			if !cs.dense && n > list.pairs {
				list = value{p, int32(code), n}
			}
		}
	}
	if dense.p == nil || list.p == nil {
		b.Fatal("the build laid out no dense value or no list")
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]int, 4096)
	for i := range rows {
		rows[i] = rng.Intn(info.NumRows)
	}
	for _, arm := range []struct {
		name string
		v    value
	}{{"dense", dense}, {"list", list}} {
		v := arm.v
		b.Run(arm.name+"/probe", func(b *testing.B) {
			sum := 0
			for b.Loop() {
				for _, row := range rows {
					sum += v.p.StrengthOfCode(row, v.code)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/probe")
			b.ReportMetric(float64(v.pairs), "pairs")
			if sum < 0 {
				b.Fatal(sum)
			}
		})
		for _, theta := range []int{1, 2} {
			b.Run(arm.name+"/set-theta"+string(rune('0'+theta)), func(b *testing.B) {
				for b.Loop() {
					v.p.EntityRowSetWithStrength(v.code, theta, trace.Span{}, false)
				}
				b.ReportMetric(float64(v.pairs), "pairs")
			})
		}
	}
}
