package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func newTestHeap(t *testing.T, pageSize, poolSize int) (*HeapFile, *Pager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heap.db")
	pg, err := createAt(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pg.Close() })
	pool, err := NewBufferPool(pg, poolSize)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeapFile(pg, pool, 5)
	if err != nil {
		t.Fatal(err)
	}
	return h, pg, path
}

// get returns a copy of the live record at rid, found by a scan, and
// whether there is one.
func get(t *testing.T, h *HeapFile, rid RID) ([]byte, bool) {
	t.Helper()
	var out []byte
	found := false
	if err := h.Scan(func(r RID, rec []byte) bool {
		if r == rid {
			out, found = bytes.Clone(rec), true
		}
		return !found
	}); err != nil {
		t.Fatal(err)
	}
	return out, found
}

func TestRIDPack(t *testing.T) {
	r := RID{Page: 123456, Slot: 789}
	if got := UnpackRID(r.Pack()); got != r {
		t.Fatalf("pack round trip: %v -> %v", r, got)
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestHeapInsertGet(t *testing.T) {
	h, _, _ := newTestHeap(t, 256, 8)
	recs := [][]byte{
		[]byte("alpha"),
		[]byte("beta-beta"),
		{},
		bytes.Repeat([]byte{0xAB}, 100),
	}
	var rids []RID
	for _, r := range recs {
		rid, err := h.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, ok := get(t, h, rid)
		if !ok || !bytes.Equal(got, recs[i]) {
			t.Fatalf("record %d: got %q want %q", i, got, recs[i])
		}
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	h, _, _ := newTestHeap(t, 256, 8)
	if _, err := h.Insert(make([]byte, 256)); err == nil {
		t.Fatal("accepted record larger than a page")
	}
}

func TestHeapSpillsAcrossPages(t *testing.T) {
	h, pg, _ := newTestHeap(t, 256, 8)
	var rids []RID
	rec := bytes.Repeat([]byte{1}, 60)
	for i := 0; i < 40; i++ {
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if n := statsOf(pg).TotalPages; n < 5 {
		t.Fatalf("expected multiple pages, have %d", n)
	}
	pages := map[PageID]bool{}
	for _, rid := range rids {
		pages[rid.Page] = true
		if _, ok := get(t, h, rid); !ok {
			t.Fatalf("%v lost", rid)
		}
	}
	if len(pages) < 2 {
		t.Fatal("all records on one page")
	}
}

func TestHeapDeleteAndErrors(t *testing.T) {
	h, _, _ := newTestHeap(t, 256, 8)
	rid, err := h.Insert([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, h, rid); ok {
		t.Fatal("a scan returned a deleted record")
	}
	if err := h.Delete(rid); err == nil {
		t.Fatal("double delete succeeded")
	}
	if err := h.Delete(RID{Page: rid.Page, Slot: 99}); err == nil {
		t.Fatal("Delete succeeded on bogus slot")
	}
}

// TestHeapSlotReuseAndCompaction: after deletions, new inserts reuse dead
// slots and reclaim dead space without breaking surviving RIDs.
func TestHeapSlotReuseAndCompaction(t *testing.T) {
	h, _, _ := newTestHeap(t, 256, 8)
	// Fill one page tightly.
	var rids []RID
	for i := 0; i < 5; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i + 1)}, 40))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	firstPage := rids[0].Page
	// Delete two records from the middle.
	if err := h.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[3]); err != nil {
		t.Fatal(err)
	}
	// A new record fits only after compaction; it must land on the same
	// page, reusing a dead slot.
	rid, err := h.Insert(bytes.Repeat([]byte{9}, 70))
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != firstPage {
		t.Fatalf("insert went to page %d, want reuse of %d", rid.Page, firstPage)
	}
	if rid.Slot != rids[1].Slot && rid.Slot != rids[3].Slot {
		t.Fatalf("dead slot not reused: got slot %d", rid.Slot)
	}
	// Survivors are intact after compaction.
	for _, i := range []int{0, 2, 4} {
		got, ok := get(t, h, rids[i])
		want := bytes.Repeat([]byte{byte(i + 1)}, 40)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("record %d corrupted by compaction", i)
		}
	}
}

// TestHeapShrink: Shrink rewrites a record in place under its RID, refuses
// to grow one or to touch a deleted one, and the bytes it gives up are
// reclaimed by compaction like a deleted record's.
func TestHeapShrink(t *testing.T) {
	h, _, _ := newTestHeap(t, 256, 8)
	var rids []RID
	for i := 0; i < 5; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i + 1)}, 40))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.Shrink(rids[1], bytes.Repeat([]byte{7}, 41)); err == nil {
		t.Fatal("Shrink grew a record")
	}
	if err := h.Shrink(rids[1], []byte("short")); err != nil {
		t.Fatal(err)
	}
	if got, ok := get(t, h, rids[1]); !ok || string(got) != "short" {
		t.Fatalf("shrunk record reads %q, %v", got, ok)
	}
	// 35 of the page's bytes are now dead: a record that fits only once
	// they are reclaimed lands on the same page, and the others survive.
	rid, err := h.Insert(bytes.Repeat([]byte{9}, 40))
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != rids[0].Page {
		t.Fatalf("insert went to page %d, want the compacted page %d", rid.Page, rids[0].Page)
	}
	for i, want := range [][]byte{bytes.Repeat([]byte{1}, 40), []byte("short"), bytes.Repeat([]byte{3}, 40)} {
		if got, ok := get(t, h, rids[i]); !ok || !bytes.Equal(got, want) {
			t.Fatalf("record %d after compaction reads %q, %v", i, got, ok)
		}
	}
	if err := h.Delete(rids[2]); err != nil {
		t.Fatal(err)
	}
	if err := h.Shrink(rids[2], nil); err == nil {
		t.Fatal("Shrink rewrote a deleted record")
	}
}

func TestHeapScan(t *testing.T) {
	h, _, _ := newTestHeap(t, 256, 8)
	want := map[string]bool{}
	for i := 0; i < 25; i++ {
		rec := []byte(fmt.Sprintf("record-%02d", i))
		if _, err := h.Insert(rec); err != nil {
			t.Fatal(err)
		}
		want[string(rec)] = true
	}
	// Delete a few.
	rid, _ := h.Insert([]byte("to-delete"))
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	if err := h.Scan(func(r RID, rec []byte) bool {
		got[string(rec)] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan found %d records, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("scan missed %q", k)
		}
	}
	// Early stop.
	n := 0
	if err := h.Scan(func(RID, []byte) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestHeapReopen: records survive close/reopen, and appends continue at
// the tail, which the reopened heap finds in its pager root slot: the
// chain still holds every record after the append.
func TestHeapReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reopen.db")
	pg, err := createAt(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	pool, _ := NewBufferPool(pg, 8)
	h, err := NewHeapFile(pg, pool, 5)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 30; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("persistent-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}

	pg2, err := openAt(path)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	pool2, _ := NewBufferPool(pg2, 8)
	h2, err := OpenHeapFile(pg2, pool2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		if got, ok := get(t, h2, rid); !ok || string(got) != fmt.Sprintf("persistent-%d", i) {
			t.Fatalf("record %d: %q", i, got)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := h2.Insert([]byte("appended")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := h2.Scan(func(RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != len(rids)+10 {
		t.Fatalf("the chain holds %d records after the appends, want %d", n, len(rids)+10)
	}
}

// TestHeapRandomizedWorkload stresses insert/get/delete against an oracle.
func TestHeapRandomizedWorkload(t *testing.T) {
	h, _, _ := newTestHeap(t, 512, 6)
	rng := rand.New(rand.NewSource(88))
	oracle := map[RID][]byte{}
	var live []RID
	for i := 0; i < 2000; i++ {
		switch {
		case len(live) == 0 || rng.Intn(3) > 0:
			rec := make([]byte, rng.Intn(120))
			rng.Read(rec)
			rid, err := h.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := oracle[rid]; dup {
				t.Fatalf("RID %v handed out twice", rid)
			}
			oracle[rid] = append([]byte(nil), rec...)
			live = append(live, rid)
		case rng.Intn(2) == 0:
			idx := rng.Intn(len(live))
			rid := live[idx]
			if got, ok := get(t, h, rid); !ok || !bytes.Equal(got, oracle[rid]) {
				t.Fatalf("%v: content mismatch", rid)
			}
		default:
			idx := rng.Intn(len(live))
			rid := live[idx]
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(oracle, rid)
			live[idx] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	// Final scan agrees with the oracle.
	seen := 0
	if err := h.Scan(func(rid RID, rec []byte) bool {
		want, ok := oracle[rid]
		if !ok {
			t.Fatalf("scan surfaced deleted/unknown %v", rid)
		}
		if !bytes.Equal(rec, want) {
			t.Fatalf("%v: scan content mismatch", rid)
		}
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(oracle) {
		t.Fatalf("scan saw %d records, oracle has %d", seen, len(oracle))
	}
}
