package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"walrus/internal/obs"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d, want 5", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			For(n, workers, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForSerialRunsInOrder(t *testing.T) {
	var order []int
	For(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial For visited %v, want ascending order", order)
		}
	}
}

// TestForDrainsActiveWorkers pins the order of a worker's exit: it leaves
// the active-workers gauge before it signals completion, so For never
// returns while the gauge still counts one of its workers.
func TestForDrainsActiveWorkers(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(reg)
	defer SetMetrics(nil)
	active := reg.Gauge("walrus_pool_active_workers", "")
	for i := 0; i < 1000; i++ {
		For(4, 4, func(int) {})
		if v := active.Value(); v != 0 {
			t.Fatalf("run %d: For returned with %d workers still active", i, v)
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("boom-2")
	err := ForErr(10, 4, func(i int) error {
		if i == 2 {
			return wantErr
		}
		if i == 7 {
			return fmt.Errorf("boom-7")
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("ForErr = %v, want %v", err, wantErr)
	}
	if err := ForErr(10, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("ForErr on success = %v, want nil", err)
	}
}
