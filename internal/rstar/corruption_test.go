package rstar

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"walrus/internal/store"
)

// TestPagedStoreDetectsCorruption flips bytes in node pages on disk and
// verifies the checksum catches it.
func TestPagedStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.db")
	pg, err := store.Create(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := store.NewBufferPool(pg, 16)
	ps, err := NewPagedStore(pg, pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(ps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 200; i++ {
		if err := tr.Insert(randomRect(rng, 3), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.Flush(); err != nil {
		t.Fatal(err)
	}
	pg.Close()

	// Flip one byte in the middle of every node page (skip the meta page).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 1024 + 100; off < len(raw); off += 1024 {
		raw[off] ^= 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	pg2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	pool2, _ := store.NewBufferPool(pg2, 16)
	ps2, err := NewPagedStore(pg2, pool2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Load(ps2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr2.SearchAll(Point([]float64{0.5, 0.5, 0.5}).Expand(10))
	if err == nil {
		t.Fatal("search succeeded on corrupted pages")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("expected checksum error, got: %v", err)
	}
}

// TestPagedStoreSurvivesUncorruptedReload is the control: the same flow
// without corruption succeeds (guards against over-eager checksums).
func TestPagedStoreSurvivesUncorruptedReload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clean.db")
	pg, err := store.Create(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := store.NewBufferPool(pg, 4) // tiny pool: forces evictions and re-reads
	ps, err := NewPagedStore(pg, pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(ps)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(80))
	var rects []Rect
	for i := 0; i < 300; i++ {
		r := randomRect(rng, 3)
		rects = append(rects, r)
		if err := tr.Insert(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Flush(); err != nil {
		t.Fatal(err)
	}
	pg.Close()

	pg2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	pool2, _ := store.NewBufferPool(pg2, 4)
	ps2, err := NewPagedStore(pg2, pool2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Load(ps2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr2.SearchAll(Point([]float64{0.5, 0.5, 0.5}).Expand(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("full scan found %d of 300", len(got))
	}
}

// TestProbeDetectsCorruptNode damages one leaf of a flushed tree and checks
// the descent trusts nothing on it: Probe stops with the checksum error
// and none of that leaf's entries was emitted, whether the damage is caught
// by the pager's page footer (a byte flipped on disk) or only by the node's
// own CRC (a byte flipped under a valid footer).
func TestProbeDetectsCorruptNode(t *testing.T) {
	for _, onDisk := range []bool{true, false} {
		t.Run(fmt.Sprintf("onDisk=%v", onDisk), func(t *testing.T) {
			tr, ps, path := pagedBulkTree(t, 1024, 3, 600, 4)
			// Pick the last leaf in depth-first order, so earlier leaves
			// emit before the descent reaches the damage.
			id := tr.root
			var victim *Node
			for {
				n, err := ps.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				if n.Leaf {
					victim = n
					break
				}
				id = n.Entries[len(n.Entries)-1].Child
			}
			onVictim := make(map[int64]bool)
			for _, e := range victim.Entries {
				onVictim[e.Data] = true
			}

			const entryByte = pagedHeader + pagedRefBytes + 3 // inside the first entry's rectangle
			if onDisk {
				// Cycle the 4-frame pool so the victim is not resident.
				for i := 0; i < 2; i++ {
					if _, err := tr.SearchAll(everything(3)); err != nil {
						t.Fatal(err)
					}
				}
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				off := int64(victim.ID)*int64(ps.pg.PhysicalPageSize()) + entryByte
				var b [1]byte
				if _, err := f.ReadAt(b[:], off); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0xFF
				if _, err := f.WriteAt(b[:], off); err != nil {
					t.Fatal(err)
				}
			} else {
				f, err := ps.pool.Get(store.PageID(victim.ID))
				if err != nil {
					t.Fatal(err)
				}
				f.Data[entryByte] ^= 0xFF
				ps.pool.Unpin(f, true)
				if err := ps.Flush(); err != nil {
					t.Fatal(err)
				}
			}

			emitted := 0
			_, err := tr.Probe([]Probe{{Box: everything(3)}, {Box: everything(3)}}, func(_ int, data int64) {
				emitted++
				if onVictim[data] {
					t.Errorf("entry %d emitted from the corrupt page", data)
				}
			})
			if err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("expected a checksum error, got: %v", err)
			}
			if !onDisk && !strings.Contains(err.Error(), "rstar:") {
				t.Fatalf("expected the node CRC to catch it, got: %v", err)
			}
			if emitted == 0 {
				t.Fatal("nothing emitted before the corrupt leaf: the test did not reach it mid-descent")
			}
		})
	}
}
