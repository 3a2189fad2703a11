// Package parallel provides the bounded worker pools WALRUS's hot paths
// fan work across: per-image region extraction in batch ingest, the
// refine pass over a query's hits, and the per-shard stages of a sharded
// database. Every helper takes the same bound: workers <= 0 means
// GOMAXPROCS workers, 1 forces the serial path, and any other value
// bounds the pool at that size. The walrus package sizes its pools at
// GOMAXPROCS, except where a caller of AddBatch, BuildFrom or CreateFrom
// passes a worker count.
// Work items are claimed dynamically from a shared counter, so
// uneven item costs still balance across the pool; callers that need
// deterministic output write results into per-index slots and merge in
// index order afterwards.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"walrus/internal/obs"
)

// poolMetrics are the package's pre-resolved obs handles. Worker pools are
// ephemeral (one per For call), so the handles are package-global and read
// through an atomic pointer; nil means observability is off and the claim
// loop does no metric work.
type poolMetrics struct {
	queueDepth, activeWorkers *obs.Gauge
	tasks                     *obs.Counter
}

var metrics atomic.Pointer[poolMetrics]

// SetMetrics publishes pool activity into reg under the walrus_pool_*
// namespace; nil detaches. The handles are process-global: every pool in
// the process reports into the same gauges.
func SetMetrics(reg *obs.Registry) {
	if reg == nil {
		metrics.Store(nil)
		return
	}
	metrics.Store(&poolMetrics{
		queueDepth:    reg.Gauge("walrus_pool_queue_depth", "Work items submitted to worker pools and not yet claimed."),
		activeWorkers: reg.Gauge("walrus_pool_active_workers", "Worker goroutines (or inline serial loops) currently running."),
		tasks:         reg.Counter("walrus_pool_tasks_total", "Work items completed by worker pools."),
	})
}

// Workers resolves a worker count: values <= 0 mean GOMAXPROCS,
// anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines
// (resolved by Workers) and returns when all calls have finished. With
// one worker — or one item — it degrades to a plain loop on the calling
// goroutine, so the serial path has zero scheduling overhead.
func For(n, workers int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	m := metrics.Load()
	if m != nil {
		m.queueDepth.Add(int64(n))
	}
	if workers <= 1 {
		if m != nil {
			m.activeWorkers.Add(1)
		}
		for i := 0; i < n; i++ {
			fn(i)
			if m != nil {
				m.queueDepth.Add(-1)
				m.tasks.Inc()
			}
		}
		if m != nil {
			m.activeWorkers.Add(-1)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			// Deferred calls run last-in first-out: Done is registered first
			// so it runs after the gauge is decremented, and For never
			// returns with a worker still counted as active.
			defer wg.Done()
			if m != nil {
				m.activeWorkers.Add(1)
				defer m.activeWorkers.Add(-1)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
				if m != nil {
					m.queueDepth.Add(-1)
					m.tasks.Inc()
				}
			}
		}()
	}
	wg.Wait()
}

// ForErr runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the error of the lowest-indexed failing call, or nil. All items
// run regardless of failures, so the returned error is deterministic — the
// same one the serial loop would have hit first.
func ForErr(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	For(n, workers, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
