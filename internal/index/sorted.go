package index

import "sort"

// Sorted is a sorted index over a numeric column. It supports the prefix
// selectivity queries the αDB precomputes (§5 "smart selectivity
// computation"): CountLE(v) gives |{rows : value ≤ v}| in O(log n), and
// range counts are differences of prefixes.
type Sorted struct {
	vals []float64 // sorted, NULLs excluded
	min  float64
	max  float64
}

// BuildSortedFromValues builds the index straight from a value slice;
// the αDB uses this for derived association-strength distributions.
func BuildSortedFromValues(vals []float64) *Sorted {
	s := &Sorted{vals: append([]float64(nil), vals...)}
	sort.Float64s(s.vals)
	if len(s.vals) > 0 {
		s.min = s.vals[0]
		s.max = s.vals[len(s.vals)-1]
	}
	return s
}

// Len returns the number of indexed (non-NULL) values.
func (s *Sorted) Len() int { return len(s.vals) }

// RawVals exposes the sorted value storage for snapshot serialization;
// do not mutate.
func (s *Sorted) RawVals() []float64 { return s.vals }

// RestoreSorted adopts an already-sorted value slice (snapshot load).
func RestoreSorted(vals []float64) *Sorted {
	s := &Sorted{vals: vals}
	if len(vals) > 0 {
		s.min, s.max = vals[0], vals[len(vals)-1]
	}
	return s
}

// Min returns the smallest indexed value (0 when empty).
func (s *Sorted) Min() float64 { return s.min }

// Max returns the largest indexed value (0 when empty).
func (s *Sorted) Max() float64 { return s.max }

// CountLE returns the number of values ≤ v.
func (s *Sorted) CountLE(v float64) int {
	return sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > v })
}

// CountLT returns the number of values < v.
func (s *Sorted) CountLT(v float64) int {
	return sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
}

// CountGE returns the number of values ≥ v.
func (s *Sorted) CountGE(v float64) int { return len(s.vals) - s.CountLT(v) }

// CountRange returns the number of values in the closed interval [lo, hi],
// computed as a difference of prefix counts exactly as the αDB derives
// ψ(φ⟨A,(l,h]⟩) from precomputed prefixes.
func (s *Sorted) CountRange(lo, hi float64) int {
	if hi < lo {
		return 0
	}
	return s.CountLE(hi) - s.CountLT(lo)
}

// Clone returns a deep copy for copy-on-write maintenance: the writer
// mutates the clone in place (Insert/Replace shift elements), so the
// value array cannot be shared with readers of the original.
func (s *Sorted) Clone() *Sorted {
	if s == nil {
		return nil
	}
	return &Sorted{vals: append([]float64(nil), s.vals...), min: s.min, max: s.max}
}

// Insert adds one value in place, keeping the order (incremental αDB
// maintenance). It returns the receiver for chaining; a nil receiver
// allocates a fresh index.
func (s *Sorted) Insert(v float64) *Sorted {
	if s == nil {
		return BuildSortedFromValues([]float64{v})
	}
	pos := s.CountLT(v)
	s.vals = append(s.vals, 0)
	copy(s.vals[pos+1:], s.vals[pos:])
	s.vals[pos] = v
	if len(s.vals) == 1 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	return s
}

// Replace swaps one occurrence of old for new (or just inserts new when
// fresh is true), keeping the order; used when an association count is
// bumped during incremental maintenance.
func (s *Sorted) Replace(old, new float64, fresh bool) *Sorted {
	if s == nil {
		return BuildSortedFromValues([]float64{new})
	}
	if !fresh {
		pos := s.CountLT(old)
		if pos < len(s.vals) && s.vals[pos] == old {
			copy(s.vals[pos:], s.vals[pos+1:])
			s.vals = s.vals[:len(s.vals)-1]
		}
	}
	return s.Insert(new)
}
