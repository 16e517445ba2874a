//go:build race

package relation

// raceDetectorEnabled reports whether this test binary was built with
// -race; allocation-count assertions skip under it (the detector's
// instrumentation changes what allocates).
const raceDetectorEnabled = true
