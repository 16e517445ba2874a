package adb

import (
	"sync"
	"sync/atomic"

	"squid/internal/index"
	"squid/internal/trace"
)

// SelKey identifies one satisfying-row-set question about the property
// whose memo holds it: the filter operands. Keys are comparable structs
// so memo lookups allocate nothing.
type SelKey struct {
	// Value is the categorical value ("" for numeric ranges); for
	// disjunctions it is the canonical sorted, length-prefixed join of
	// the value set (see disjunctionKey).
	Value string
	// Lo, Hi bound numeric range filters; normalized derived
	// thresholds (θn) are carried in Lo with Theta set to the -1
	// sentinel.
	Lo, Hi float64
	// Theta is the absolute derived association-strength threshold;
	// -1 marks a normalized-threshold key (θn lives in Lo).
	Theta int
}

// rowSetMemo is one property's memo of satisfying-entity row sets
// (§5's "smart selectivity computation" made persistent): the sets back
// every selectivity question that is not already a precomputed
// O(1)/O(log n) statistic (disjunctions, numeric ranges, normalized
// derived thresholds), so repeated filters cost one map read instead of
// a posting walk. Sets are stored as adaptive index.RowSets and are
// shared — callers must treat them as immutable, exactly like the αDB
// posting lists they memoize, and Clone before mutating.
//
// The property owns its memo, and that is the whole epoch protocol: a
// property's statistics are immutable for the lifetime of its pointer,
// so every memoized set is valid forever for the property it hangs
// off. An insert that shifts a property's statistics clones the
// property (cloneForWrite) and the clone starts with an empty memo, so
// a newer epoch can never be served a retired answer; a discovery still
// pinning the retired epoch keeps hitting the retired property's memo,
// which matches exactly what it sees; and when the last such reader
// lets go, the property and its memo are collected together. Properties
// an insert does not touch keep their identity — and their warm memo —
// across the publish.
type rowSetMemo struct {
	cache *SelCache // αDB-wide hit/miss totals
	// mu stays a lock, not a copy-on-store map behind an atomic pointer:
	// on the benchmark's 4x pool a warm discovery stores nothing and a
	// cold one 2.8 sets, so it is uncontended, and a copy-on-store map
	// would copy the memo on every store.
	mu   sync.RWMutex
	sets map[SelKey]*index.RowSet
}

func newRowSetMemo(c *SelCache) *rowSetMemo {
	return &rowSetMemo{cache: c, sets: make(map[SelKey]*index.RowSet)}
}

// rowSet returns the memoized set for key, computing it on a miss, and
// storing what it computed when store is set. A caller whose key came
// out of the data (a discovery: values, bounds and strengths the
// examples exhibit) stores; one whose key a client wrote (an executed
// plan) does not, so the memo grows only as fast as the data has
// distinct operands — an unstored set is the caller's own, built and
// dropped with the request. Every memo event — hit, miss, store — bumps
// the matching counter on sp in addition to the αDB-wide totals, so a
// trace can say which phase paid for which cache behavior (the zero Span
// records nothing). A set that came from the memo is shared: do not
// mutate (Clone first).
func (m *rowSetMemo) rowSet(key SelKey, sp trace.Span, store bool, compute func() *index.RowSet) *index.RowSet {
	m.mu.RLock()
	set, ok := m.sets[key]
	m.mu.RUnlock()
	if ok {
		m.cache.hits.Add(1)
		sp.Add(trace.CounterCacheHits, 1)
		return set
	}
	m.cache.misses.Add(1)
	sp.Add(trace.CounterCacheMisses, 1)
	set = compute()
	if !store {
		return set
	}
	// The stored set is frozen from here on; drop the append-growth
	// slack it accumulated while being computed.
	set.Compact()
	m.mu.Lock()
	m.sets[key] = set
	m.mu.Unlock()
	sp.Add(trace.CounterCacheStores, 1)
	return set
}

// SelCache is the αDB-wide view of the per-property row-set memos: the
// cumulative hit/miss counters every memo reports to, plus inspection
// and reset over the memos of the current epoch's properties. It holds
// no entries itself — a retired property's memo is unreachable from
// here the moment its epoch is replaced, and lives only as long as a
// reader pins that epoch.
type SelCache struct {
	db *AlphaDB

	hits   atomic.Uint64
	misses atomic.Uint64
}

// eachMemo calls fn with the memo of every property of the epoch.
func (a *Epoch) eachMemo(fn func(*rowSetMemo)) {
	for _, info := range a.Entities {
		for _, p := range info.Basic {
			fn(p.memo)
		}
		for _, p := range info.Derived {
			fn(p.memo)
		}
	}
}

// Invalidate empties the memo of every property of the current epoch
// (the benchmark's definition of a cold discovery).
func (c *SelCache) Invalidate() {
	c.db.Snapshot().eachMemo(func(m *rowSetMemo) {
		m.mu.Lock()
		clear(m.sets)
		m.mu.Unlock()
	})
}

// Len returns the number of row sets memoized by the current epoch's
// properties.
func (c *SelCache) Len() int {
	n := 0
	c.db.Snapshot().eachMemo(func(m *rowSetMemo) {
		m.mu.RLock()
		n += len(m.sets)
		m.mu.RUnlock()
	})
	return n
}

// Range calls fn for every row set memoized by the current epoch's
// properties, each under its memo's read lock, stopping when fn returns
// false — the inspection surface for diagnostics and tests (fn must not
// mutate the sets it is handed).
func (c *SelCache) Range(fn func(SelKey, *index.RowSet) bool) {
	more := true
	c.db.Snapshot().eachMemo(func(m *rowSetMemo) {
		if !more {
			return
		}
		m.mu.RLock()
		defer m.mu.RUnlock()
		for k, s := range m.sets {
			if more = fn(k, s); !more {
				return
			}
		}
	})
}

// RowSetBytes reports the resident heap bytes of the current epoch's
// memoized row sets and what the same sets would occupy as dense-only
// bitsets (the adaptive sparse form keeps highly-selective sets at a
// few bytes per member instead of one bit per universe row).
func (c *SelCache) RowSetBytes() (resident, denseEquivalent int64) {
	c.Range(func(_ SelKey, s *index.RowSet) bool {
		resident += s.ResidentBytes()
		denseEquivalent += s.DenseEquivalentBytes()
		return true
	})
	return resident, denseEquivalent
}

// RowSetForms reports how many memoized row sets are in each physical
// form — the composition behind the RowSetBytes numbers (a savings
// ratio near 1.0x with many dense entries means the workload's filters
// genuinely are dense, not that adaptation failed).
func (c *SelCache) RowSetForms() (sparse, dense int) {
	c.Range(func(_ SelKey, s *index.RowSet) bool {
		if s.Form() == "dense" {
			dense++
		} else {
			sparse++
		}
		return true
	})
	return sparse, dense
}

// Metrics reports cumulative hit/miss counts since build or load, over
// every epoch's memos.
func (c *SelCache) Metrics() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
