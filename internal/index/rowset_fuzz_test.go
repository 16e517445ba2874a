package index

import "testing"

// FuzzRowSetOps feeds arbitrary op sequences (see applyOps for the
// encoding) through the adaptive RowSet, checking every step against a
// map oracle. Any fuzz input that breaks the sparse sorted-unique
// invariant or diverges from the oracle is a crash.
func FuzzRowSetOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 10})
	// A scattered bulk add, a contiguous run (densify), then a draining
	// intersection with a scattered operand (sparsify).
	f.Add([]byte{
		1, 0, 3, 0, 1, 0, 2, 0, 3,
		1, 1, 0, 0, 60,
		2, 0, 2, 0, 5, 0, 9,
	})
	// Word-boundary adds and a membership probe.
	f.Add([]byte{0, 0, 63, 0, 0, 64, 0, 0, 65, 5, 0, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		applyOps(t, data, map[string]bool{})
	})
}
