package squid

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"squid/internal/datagen"
)

// TestOfflineAllocsScaleLinearly is the offline phase's scaling
// contract: what Build and Load allocate per base-relation row — mallocs
// and bytes — stays within 10% across the IMDb generator at 1x, 2x and
// 4x its default size (8x too, outside -short), so neither allocates
// per row anything that grows with the data. Readings on go1.24
// linux/amd64, 1x/2x/4x/8x: Build 0.38/0.36/0.35/0.35 mallocs and
// 190/186/185/188 B a row, Load 0.73/0.70/0.68/0.68 mallocs and
// 229/226/230/232 B a row; with a pair check that rescanned an entity's
// earlier fact rows and an inverted index hashed a cell at a time,
// Build read 1.09/1.07/1.06/1.06 mallocs and Load 1.44/1.41/1.39/1.39.
func TestOfflineAllocsScaleLinearly(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts under the race detector are not the production ones")
	}
	scales := []int{1, 2, 4, 8}
	if testing.Short() {
		scales = scales[:3]
	}
	quantities := []string{"Build mallocs/row", "Build B/row", "Load mallocs/row", "Load B/row"}
	got := make([][]float64, len(quantities))
	for _, scale := range scales {
		cfg := datagen.DefaultIMDbConfig()
		cfg.NumPersons *= scale
		cfg.NumMovies *= scale
		cfg.NumCompany *= scale
		db := datagen.GenerateIMDb(cfg).DB
		rows := float64(db.TotalRows())
		var sys *System
		buildMallocs, buildBytes := allocsOf(func() {
			var err error
			if sys, err = Build(db, DefaultBuildConfig()); err != nil {
				t.Fatal(err)
			}
		})
		var buf bytes.Buffer
		if err := sys.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loadMallocs, loadBytes := allocsOf(func() {
			if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		for i, v := range []float64{buildMallocs, buildBytes, loadMallocs, loadBytes} {
			got[i] = append(got[i], v/rows)
		}
	}
	for i, q := range quantities {
		t.Logf("%s at %vx: %.3g", q, scales, got[i])
		if lo, hi := slices.Min(got[i]), slices.Max(got[i]); hi > 1.1*lo {
			t.Errorf("%s ranges from %.3g to %.3g over %vx: more than 10%% apart", q, lo, hi, scales)
		}
	}
}

// allocsOf returns the mallocs and the bytes fn allocates.
func allocsOf(fn func()) (mallocs, allocated float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}
