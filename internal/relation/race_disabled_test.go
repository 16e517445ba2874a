//go:build !race

package relation

// raceDetectorEnabled reports whether this test binary was built with
// -race; see race_enabled_test.go.
const raceDetectorEnabled = false
