package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one way of driving the program. Sweep k's inputs are a
// pure function of (workload seed, k), so any pass over sweeps 0..n-1
// computes the same results, whichever client ran each sweep.
type workload interface {
	// setup loads and generates the inputs and warms the program up
	// (pools, caches, a restarted daemon's WAL replay). It is timed and
	// repeated; each call replaces the previous call's state.
	setup(ctx context.Context) error
	// clients is the number of closed-loop clients; workers the runner
	// (or daemon) workers they share.
	clients() int
	workers() int
	// sweep runs sweep k through the program's public entry point and
	// returns its result JSON and replication count; hook receives each
	// replication's wall time where the entry point exposes it.
	sweep(ctx context.Context, k int, hook func(time.Duration)) ([]byte, int, error)
	// traced runs sweep k by calling each layer's public functions from
	// the benchmark, recording a span around every call.
	traced(ctx context.Context, k int, tr *tracer) ([]byte, error)
	// gateSweeps is how many leading sweeps the digest covers.
	gateSweeps() int
	// verify checks a pass's results beyond the digest, untimed.
	verify(ctx context.Context, results map[int][]byte) error
	close() error
}

// passResult is what one closed-loop pass measured.
type passResult struct {
	results   map[int][]byte
	sweepMS   []float64 // per completed sweep, indexed by completion
	sweepOf   []int     // sweep index of each sweepMS entry
	repMS     []float64 // from the replication hooks
	reps      int
	attempted int
	failed    int
	errs      []error
	wall      time.Duration
	jobTime   time.Duration
	mem       runtime.MemStats // delta over the pass
}

// pass drives sweeps 0, 1, 2, ... from w.clients() closed-loop clients:
// each client starts its next sweep only when its previous one has
// returned. With limit > 0 it runs exactly sweeps 0..limit-1; otherwise
// clients keep starting sweeps until seconds have passed and at least
// minSweeps sweeps and minReps replication times are in, giving up at
// three times seconds.
func pass(ctx context.Context, w workload, seconds float64, limit, minSweeps, minReps int,
	run func(ctx context.Context, k int, hook func(time.Duration)) ([]byte, int, error)) passResult {
	res := passResult{results: map[int][]byte{}}
	if f, ok := w.(*fleetWL); ok {
		f.beginPass()
		defer f.endPass()
	}
	var mu sync.Mutex
	var next atomic.Int64
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	soft := start.Add(time.Duration(seconds * float64(time.Second)))
	hard := start.Add(time.Duration(3 * seconds * float64(time.Second)))
	more := func(k int) bool {
		if limit > 0 {
			return k < limit
		}
		now := time.Now()
		if now.After(hard) {
			return false
		}
		if now.Before(soft) {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return len(res.sweepMS) < minSweeps || len(res.repMS) < minReps
	}
	hook := func(d time.Duration) {
		mu.Lock()
		res.repMS = append(res.repMS, ms(d))
		res.jobTime += d
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if !more(k) || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				out, reps, err := run(ctx, k, hook)
				d := time.Since(t0)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					res.errs = append(res.errs, err)
				} else {
					res.results[k] = out
					res.sweepMS = append(res.sweepMS, ms(d))
					res.sweepOf = append(res.sweepOf, k)
					res.reps += reps
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	res.mem.Mallocs = after.Mallocs - before.Mallocs
	res.mem.NumGC = after.NumGC - before.NumGC
	return res
}

// completed returns how many leading sweeps (0, 1, ...) have results.
func (p passResult) completed() int {
	n := 0
	for {
		if _, ok := p.results[n]; !ok {
			return n
		}
		n++
	}
}
