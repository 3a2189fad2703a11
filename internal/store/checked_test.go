package store

import (
	"fmt"
	"sync"
	"testing"
)

// TestFrameCheckedMark walks one page through the pool's life cycle: the
// mark survives clean unpins while the page stays resident, a dirty
// unpin clears it, and a page evicted and read back starts unmarked.
func TestFrameCheckedMark(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, err := NewBufferPool(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	count := countPool(bp)
	a := filledPage(t, bp, 0xA1)
	get := func(id PageID) *Frame {
		t.Helper()
		f, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	f := get(a)
	if f.Checked() {
		t.Fatal("a freshly written page is marked checked")
	}
	f.MarkChecked()
	bp.Unpin(f, false)
	if f = get(a); !f.Checked() {
		t.Fatal("a clean Unpin cleared the mark")
	}
	bp.Unpin(f, true)
	if f = get(a); f.Checked() {
		t.Fatal("a dirty Unpin kept the mark")
	}
	f.MarkChecked()
	bp.Unpin(f, false)

	filledPage(t, bp, 0xB2) // the one frame goes to the new page: a is evicted
	if f = get(a); f.Checked() {
		t.Fatal("a page read back after eviction starts marked")
	}
	if f.Data[0] != 0xA1 {
		t.Fatalf("page read back as %#x", f.Data[0])
	}
	bp.Unpin(f, false)
	if n := count("evictions"); n < 2 {
		t.Fatalf("expected at least 2 evictions, got %d", n)
	}
}

// TestFrameCheckedConcurrentScanners has several goroutines pin one frame
// at once, as concurrent probes share a node: once every scanner holds its
// pin, each checks the frame's bytes if it finds it unmarked and then
// marks it. Between rounds a dirty unpin clears the mark, so every round
// races marks against reads. Run under -race, it shows the mark needs no
// lock beyond the pin.
func TestFrameCheckedConcurrentScanners(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, err := NewBufferPool(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	id := filledPage(t, bp, 0x5A)
	const scanners, rounds = 4, 50
	for round := 0; round < rounds; round++ {
		var pinned, done sync.WaitGroup
		pinned.Add(scanners)
		done.Add(scanners)
		errs := make(chan error, scanners)
		for g := 0; g < scanners; g++ {
			go func() {
				defer done.Done()
				f, err := bp.Get(id)
				pinned.Done()
				if err != nil {
					errs <- err
					return
				}
				defer bp.Unpin(f, false)
				pinned.Wait() // every scanner holds a pin on the one frame
				if !f.Checked() {
					for i, b := range f.Data {
						if b != 0x5A {
							errs <- fmt.Errorf("byte %d = %#x under a pin", i, b)
							return
						}
					}
					f.MarkChecked()
				}
			}()
		}
		done.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		f, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Checked() {
			t.Fatalf("round %d: no scanner's mark stuck", round)
		}
		bp.Unpin(f, true) // clears the mark for the next round
	}
}
