package squid

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"squid/internal/datagen"
)

// TestOfflineAllocsScaleLinearly is the offline phase's scaling
// contract: what Build and Load allocate — mallocs and bytes — grows
// linearly with the base-relation rows of the IMDb generator at 1x, 2x
// and 4x its default size (8x too, outside -short). Each quantity is a
// fixed share (per property, per relation) plus a share per row, so the
// line through the smallest and the largest scale must predict every
// scale in between within 10%; a term that grows faster than the rows —
// a rescan, a quadratic pick — bends the middle scales off that line.
// Per row, the fixed share makes a quantity fall as the scale grows:
// Build 0.0697/0.0502/0.0413/0.036 mallocs and Load 0.258/0.226/0.211/
// 0.203 at 1x/2x/4x/8x, which a band of 10% between the smallest and
// the largest reading a row did not hold. Every quantity sits within
// 2.5% of its line through 1x and 8x; through 1x and 4x (-short),
// Build's bytes at 2x read up to 5% under it, as the build's workers
// share out the properties differently from run to run. Readings on
// go1.24 linux/amd64.
func TestOfflineAllocsScaleLinearly(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts under the race detector are not the production ones")
	}
	scales := []int{1, 2, 4, 8}
	if testing.Short() {
		scales = scales[:3]
	}
	quantities := []string{"Build mallocs", "Build bytes", "Load mallocs", "Load bytes"}
	got := make([][]float64, len(quantities))
	var rows []float64
	for _, scale := range scales {
		cfg := datagen.DefaultIMDbConfig()
		cfg.NumPersons *= scale
		cfg.NumMovies *= scale
		cfg.NumCompany *= scale
		db := datagen.GenerateIMDb(cfg).DB
		rows = append(rows, float64(db.TotalRows()))
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
			got[i] = append(got[i], v)
		}
	}
	last := len(scales) - 1
	for i, q := range quantities {
		perRow := make([]float64, len(rows))
		for k := range rows {
			perRow[k] = got[i][k] / rows[k]
		}
		slope := (got[i][last] - got[i][0]) / (rows[last] - rows[0])
		offs := make([]float64, len(rows))
		for k := 1; k < last; k++ {
			want := got[i][0] + slope*(rows[k]-rows[0])
			if offs[k] = got[i][k]/want - 1; math.Abs(offs[k]) > 0.1 {
				t.Errorf("%s at %dx: %.4g, %+.1f%% off the line through %dx and %dx (%.4g)", q, scales[k], got[i][k], 100*offs[k], scales[0], scales[last], want)
			}
		}
		t.Logf("%s a row at %vx: %.3g, off the line by %.3f", q, scales, perRow, offs)
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
