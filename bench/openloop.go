package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// loopClock is the open loop's time source; tests inject a fake.
type loopClock interface {
	// Now is the time since the loop started.
	Now() time.Duration
	Sleep(d time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }

// spinWindow is how much of a wait is spent yielding in a loop instead
// of sleeping: an idle process's timers fire up to a millisecond late on
// the reference box, which would otherwise show up as generator lag and,
// because latency runs from the due time, in every latency.
const spinWindow = 1200 * time.Microsecond

func (c wallClock) Sleep(d time.Duration) {
	wake := time.Now().Add(d)
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(wake) {
		runtime.Gosched()
	}
}

// loopSample is one request of an open loop. Latency is End-Due, not
// End-Start: a request that could not be sent on time, because every
// worker was still busy with a slow earlier one, is charged the wait
// the stall imposed on it. Start-Due is how late the generator ran.
type loopSample struct {
	Due, Start, End time.Duration
	Err             error
}

func (s loopSample) latency() time.Duration { return s.End - s.Due }
func (s loopSample) lag() time.Duration     { return s.Start - s.Due }

// runOpenLoop issues n requests on a fixed schedule, request i due at
// i*interval, from exactly `workers` goroutines (one connection each):
// a free worker claims the next index, sleeps until it is due and calls
// do. The schedule never waits for replies, so a slow system accumulates
// a backlog that shows in the latencies.
func runOpenLoop(n int, interval time.Duration, workers int, clk loopClock, do func(i int) error) []loopSample {
	samples := make([]loopSample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				s := &samples[i]
				s.Due = time.Duration(i) * interval
				if now := clk.Now(); now < s.Due {
					clk.Sleep(s.Due - now)
				}
				s.Start = clk.Now()
				s.Err = do(i)
				s.End = clk.Now()
			}
		}()
	}
	wg.Wait()
	return samples
}
