package abduction

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workPool bounds the intra-discovery parallelism of one DiscoverCtx call:
// the candidate-base-query fan-out, the per-property context walks, and
// the candidate-filter selectivity prefetch all draw helper goroutines
// from one shared semaphore, so nested forEach calls can never
// oversubscribe the Params.Workers budget no matter how the work nests.
//
// The pool is deliberately cooperative with cancellation the same way
// the serial path is: workers poll ctx.Err() before every unit (never
// wait on ctx.Done(), which deadline-free test contexts may not
// implement), so a canceled context stops claiming new units promptly
// and forEach reports the context's error.
type workPool struct {
	// sem holds one slot per helper goroutine beyond the caller;
	// nil means serial (workers <= 1).
	sem chan struct{}
}

// newWorkPool sizes a pool for the given worker budget; 0 (the
// Params.Workers default) means GOMAXPROCS, and 1 yields the serial
// pool, which runs every unit inline with zero goroutine overhead.
func newWorkPool(workers int) *workPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		return &workPool{}
	}
	return &workPool{sem: make(chan struct{}, workers-1)}
}

// forEach runs unit(0..n-1), spreading the units over the caller plus as
// many helper goroutines as the pool's semaphore has free slots — helper
// acquisition never blocks, so a nested forEach inside a saturated pool
// simply runs serial on its caller. Units are claimed from an atomic
// counter (work stealing between uneven units); writers of slot-indexed
// results get a happens-before edge to the caller via the WaitGroup, so
// assembling results by index after forEach returns is race-free and
// deterministic.
//
// Cancellation is polled via ctx.Err() before every unit on every
// worker. On cancellation the remaining units are skipped and the
// context's error is returned; n == 0 returns nil without consulting
// ctx, so empty fan-outs cannot manufacture a cancellation error.
func (p *workPool) forEach(ctx context.Context, n int, unit func(i int)) error {
	if n == 0 {
		return nil
	}
	if p == nil || p.sem == nil || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			unit(i)
		}
		return nil
	}
	var next atomic.Int64
	var failed atomic.Pointer[error]
	run := func() {
		for {
			if err := ctx.Err(); err != nil {
				failed.Store(&err)
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			unit(i)
		}
	}
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.sem }()
				run()
			}()
			continue
		default:
		}
		break // pool saturated: the caller works through the rest
	}
	run()
	wg.Wait()
	if errp := failed.Load(); errp != nil {
		return *errp
	}
	return nil
}
