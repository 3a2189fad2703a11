package rstar

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"walrus/internal/store"
)

// TestMemStorePointLeafRejectsBox: an in-memory point-leaf store keeps the
// paged store's leaf layout, so its Put refuses a leaf entry that is not a
// point just as TestPagedStorePointLeafRejectsBox's store does. A node Get
// handed out and then refused keeps no place in the decode cache: the
// next Get reads the page, which the refused Put left as it was.
func TestMemStorePointLeafRejectsBox(t *testing.T) {
	ms, err := NewMemStore(3, 8, PointLeaves)
	if err != nil {
		t.Fatal(err)
	}
	checkPointLeafRejectsBox(t, ms)

	leaf, err := ms.New(true)
	if err != nil {
		t.Fatal(err)
	}
	leaf.Entries = []Entry{{Rect: Point([]float64{1, 2, 3}), Data: 1}}
	if err := ms.Put(leaf); err != nil {
		t.Fatal(err)
	}
	got, err := ms.Get(leaf.ID)
	if err != nil {
		t.Fatal(err)
	}
	got.Entries = append(got.Entries, Entry{Rect: randomRect(rand.New(rand.NewSource(4)), 3), Data: 2})
	if err := ms.Put(got); err == nil {
		t.Fatal("Put of a box into a point leaf succeeded")
	}
	if again, err := ms.Get(leaf.ID); err != nil || again == got || len(again.Entries) != 1 {
		t.Fatalf("Get after a refused Put: %v, want the page's one entry", err)
	}
}

// TestMemStoreRoundTrip: at d = 2 and 12, for both leaf kinds and both
// node kinds, a node of M+1 entries whose bounds are arbitrary float64 bit
// patterns (NaNs, infinities, signed zeros and subnormals included) is
// stored as a page sized exactly to its entries, byte for byte the page a
// PagedStore writes for it, and decodes back bit for bit. A second Get
// hands back the object the first decoded. A Put that changes the node
// replaces the page and leaves the old slice as it was, which is what lets
// an overlay keep it as a pre-image without a copy; one that changes
// nothing keeps the page.
func TestMemStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	float := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal
		default:
			return math.Float64frombits(rng.Uint64())
		}
	}
	for _, dim := range []int{2, 12} {
		for _, leaves := range []LeafKind{BoxLeaves, PointLeaves} {
			ms, err := NewMemStore(dim, 16, leaves)
			if err != nil {
				t.Fatal(err)
			}
			ps := newPagedStore(t, dim, store.DefaultPageSize, 4, leaves)
			for _, leaf := range []bool{true, false} {
				point := leaf && leaves == PointLeaves
				n, err := ms.New(leaf)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i <= ms.MaxEntries(leaf); i++ {
					r := Rect{Min: make([]float64, dim), Max: make([]float64, dim)}
					for j := range r.Min {
						r.Min[j], r.Max[j] = float(), float()
						if point {
							r.Max[j] = r.Min[j]
						}
					}
					n.Entries = append(n.Entries, Entry{Rect: r, Data: int64(rng.Uint64()), Child: NodeID(rng.Uint64())})
				}
				if err := ms.Put(n); err != nil {
					t.Fatal(err)
				}
				page := ms.pages[n.ID]
				if want := pagedHeader + len(n.Entries)*ms.stride(leaf); len(page) != want {
					t.Fatalf("dim=%d points=%v leaf=%v: page is %d bytes, want %d", dim, ms.points, leaf, len(page), want)
				}
				pn, err := ps.New(leaf)
				if err != nil {
					t.Fatal(err)
				}
				pn.Entries = n.Entries
				if err := ps.Put(pn); err != nil {
					t.Fatal(err)
				}
				f, err := ps.pool.Get(store.PageID(pn.ID))
				if err != nil {
					t.Fatal(err)
				}
				same := bytes.Equal(f.Data[:len(page)], page)
				ps.pool.Unpin(f, false)
				if !same {
					t.Fatalf("dim=%d points=%v leaf=%v: the in-memory page differs from the paged store's", dim, ms.points, leaf)
				}

				got, err := ms.Get(n.ID)
				if err != nil || got == n {
					t.Fatalf("dim=%d points=%v leaf=%v: Get returned %p (%v), not a node decoded from the page", dim, ms.points, leaf, got, err)
				}
				if again, err := ms.Get(n.ID); err != nil || again != got {
					t.Fatalf("dim=%d points=%v leaf=%v: a second Get decoded again", dim, ms.points, leaf)
				}
				if got.Leaf != leaf || len(got.Entries) != len(n.Entries) {
					t.Fatalf("dim=%d points=%v leaf=%v: read back leaf=%v with %d entries", dim, ms.points, leaf, got.Leaf, len(got.Entries))
				}
				for i, e := range got.Entries {
					w := n.Entries[i]
					if (leaf && e.Data != w.Data) || (!leaf && e.Child != w.Child) {
						t.Fatalf("dim=%d points=%v leaf=%v: entry %d reference changed", dim, ms.points, leaf, i)
					}
					for j := 0; j < dim; j++ {
						if math.Float64bits(e.Rect.Min[j]) != math.Float64bits(w.Rect.Min[j]) ||
							math.Float64bits(e.Rect.Max[j]) != math.Float64bits(w.Rect.Max[j]) {
							t.Fatalf("dim=%d points=%v leaf=%v: entry %d read back as %v, want %v", dim, ms.points, leaf, i, e.Rect, w.Rect)
						}
					}
				}

				if err := ms.Put(got); err != nil {
					t.Fatal(err)
				}
				if &ms.pages[n.ID][0] != &page[0] {
					t.Fatalf("dim=%d points=%v leaf=%v: an unchanged Put replaced the page", dim, ms.points, leaf)
				}
				old := append([]byte(nil), page...)
				got.Entries = got.Entries[:1]
				if err := ms.Put(got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(page, old) || len(ms.pages[n.ID]) != pagedHeader+ms.stride(leaf) {
					t.Fatalf("dim=%d points=%v leaf=%v: Put rewrote the old page instead of replacing it", dim, ms.points, leaf)
				}
			}
		}
	}
}
