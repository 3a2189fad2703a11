package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when told to: by a worker sleeping until a due
// time, or by a request taking service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
}

// With one connection, a 50 ms stall on request 3 of a 10 ms schedule
// makes requests 4.. start late. Their latency must run from when they
// were due, not from when the stalled connection got to them.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	const interval, service, stall = 10 * time.Millisecond, time.Millisecond, 50 * time.Millisecond
	samples := runOpenLoop(10, interval, 1, clk, func(i int) error {
		if i == 3 {
			clk.Sleep(stall)
		} else {
			clk.Sleep(service)
		}
		return nil
	})
	for i, s := range samples {
		if s.Due != time.Duration(i)*interval {
			t.Fatalf("request %d due at %v", i, s.Due)
		}
	}
	for i := 0; i < 3; i++ {
		if samples[i].lag() != 0 || samples[i].latency() != service {
			t.Errorf("request %d before the stall: lag %v latency %v", i, samples[i].lag(), samples[i].latency())
		}
	}
	if got := samples[3].latency(); got != stall {
		t.Errorf("stalled request latency %v, want %v", got, stall)
	}
	// Request 4 was due at 40 ms; the connection came free at 80 ms.
	if got := samples[4].lag(); got != 40*time.Millisecond {
		t.Errorf("request 4 sent %v late, want 40ms", got)
	}
	if got := samples[4].latency(); got != 41*time.Millisecond {
		t.Errorf("request 4 latency %v, want 41ms: its own 1ms plus the 40ms it waited past its due time", got)
	}
	if got := samples[4].End - samples[4].Start; got != service {
		t.Errorf("request 4 service time %v, want %v", got, service)
	}
	// The backlog drains at 1 ms per request against a 10 ms schedule.
	if got := samples[8].lag(); got != 4*time.Millisecond {
		t.Errorf("request 8 sent %v late, want 4ms", got)
	}
	if got := samples[9].lag(); got != 0 {
		t.Errorf("request 9 sent %v late, want on time", got)
	}
}

// The generator uses exactly the goroutines it is given, and every
// request runs once.
func TestOpenLoopRunsEveryRequestOnce(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]int)
	active, peak := 0, 0
	samples := runOpenLoop(200, 50*time.Microsecond, 2, wallClock{time.Now()}, func(i int) error {
		mu.Lock()
		seen[i]++
		active++
		peak = max(peak, active)
		mu.Unlock()
		time.Sleep(20 * time.Microsecond)
		mu.Lock()
		active--
		mu.Unlock()
		return nil
	})
	if len(samples) != 200 || len(seen) != 200 {
		t.Fatalf("%d samples, %d distinct requests", len(samples), len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("request %d ran %d times", i, n)
		}
	}
	if peak > 2 {
		t.Errorf("%d requests in flight with 2 workers", peak)
	}
	for i, s := range samples {
		if s.Start < s.Due || s.End < s.Start {
			t.Errorf("request %d: due %v start %v end %v", i, s.Due, s.Start, s.End)
		}
	}
}
