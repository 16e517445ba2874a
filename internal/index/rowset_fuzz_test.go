package index

import "testing"

// FuzzRowSetOps feeds arbitrary op sequences (see applyOps for the
// encoding) through the adaptive RowSet, checking every step against a
// map oracle. Any fuzz input that breaks the sparse sorted-unique
// invariant or diverges from the oracle is a crash.
func FuzzRowSetOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 10})
	// A clustered fill (densify) followed by a draining intersection
	// (sparsify) and a cross-form union.
	f.Add([]byte{
		1, 30, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8,
		2, 1, 0, 1, 40,
		3, 0, 5, 0, 1, 0, 9,
	})
	// Word-boundary adds and a subtract.
	f.Add([]byte{0, 0, 63, 0, 0, 64, 0, 0, 65, 4, 0, 2, 0, 64, 7, 0, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		applyOps(t, data, map[string]bool{})
	})
}
