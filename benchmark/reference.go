package main

import (
	"math/rand"
	"slices"
	"time"
)

// The machine-speed reference.
//
// The sandbox the benchmark runs on shares its cores and caches with
// neighbours, and its speed drifts by 10 to 25% for minutes at a time:
// set-up, discover, execute and insert of one run are all slow together
// (benchmark/NOISE.md). A run cannot average that out in 30 seconds, so
// it measures it: a fixed kernel that contains no code of the program
// runs in bursts between the timed blocks, and every timing is reported
// at the speed at which a burst takes referenceNominalMS, that is
// multiplied by referenceNominalMS over the run's median burst. Ten runs
// of identical code then spread by a quarter to a half of what the raw
// timings spread by. A change to the program cannot move the reference,
// so a regression shows in full.
//
// The kernel has three parts of about equal length, for the three things
// the program's time goes to: branchy work inside the cache (sorting
// keys), cache misses (chasing a chain through 16 MB) and allocation
// (small objects and 2 KB slices, which the collector later frees).

// referenceNominalMS is the length of one burst at full size on the
// sandbox in a calm period, go1.24: the speed all timings are reported
// at. Only ratios to it matter; it makes the reported numbers read like
// the raw ones of a calm run.
const referenceNominalMS = 20.0

// referenceFull is the reference's size in real runs; the smoke test
// runs it at 1.
const referenceFull = 100

type refNode struct {
	next *refNode
	v    [2]uint64
}

type reference struct {
	keys, scratch []uint32
	chain         []uint32
	at            uint32
	steps         int
	slices        [][]uint64
	nodes         int
	keep          *refNode
	// burstsMS holds the length of every burst since the last take.
	burstsMS []float64
}

// newReference builds the kernel's inputs from a seed of its own: the
// reference is the same in every run.
func newReference(size int) *reference {
	rng := rand.New(rand.NewSource(13))
	ref := &reference{
		keys:    make([]uint32, 1000*size),
		scratch: make([]uint32, 1000*size),
		chain:   make([]uint32, (1<<22)/referenceFull*size),
		steps:   500 * size,
		slices:  make([][]uint64, 0, 40*size),
		nodes:   1000 * size,
	}
	for i := range ref.keys {
		ref.keys[i] = rng.Uint32()
	}
	// One cycle through every entry (Sattolo), so a chase never settles
	// into a short loop that fits the cache.
	for i := range ref.chain {
		ref.chain[i] = uint32(i)
	}
	for i := len(ref.chain) - 1; i > 0; i-- {
		j := rng.Intn(i)
		ref.chain[i], ref.chain[j] = ref.chain[j], ref.chain[i]
	}
	return ref
}

// burst runs the kernel once, untimed as far as the workload goes, and
// keeps its length.
func (ref *reference) burst() {
	start := time.Now()
	copy(ref.scratch, ref.keys)
	slices.Sort(ref.scratch)

	at := ref.at
	for i := 0; i < ref.steps; i++ {
		at = ref.chain[at]
	}
	ref.at = at

	ref.slices = ref.slices[:0]
	for i := 0; i < cap(ref.slices); i++ {
		s := make([]uint64, 256)
		s[0] = uint64(i)
		ref.slices = append(ref.slices, s)
	}
	var head *refNode
	for i := 0; i < ref.nodes; i++ {
		head = &refNode{next: head, v: [2]uint64{uint64(i), uint64(at)}}
	}
	ref.keep = head
	ref.burstsMS = append(ref.burstsMS, msOf(time.Since(start)))
	// Nothing of a burst stays live.
	clear(ref.slices)
	ref.keep = nil
}

// take returns the median burst since the last take, in ms, and forgets
// the bursts.
func (ref *reference) take() float64 {
	m := median(ref.burstsMS)
	ref.burstsMS = ref.burstsMS[:0]
	return m
}

// release drops the kernel's inputs, so that they are not in heap_mb.
func (ref *reference) release() {
	*ref = reference{}
}

// atReference scales a duration measured while bursts took burstMS to
// the reference speed.
func atReference(duration, burstMS float64) float64 {
	return duration * referenceNominalMS / burstMS
}
