package store

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
)

func newTestPager(t *testing.T, pageSize int) (*Pager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	p, err := Create(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, path
}

func TestPagerCreateRejectsTinyPages(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "x.db"), 16); err == nil {
		t.Fatal("Create accepted 16-byte pages")
	}
}

func TestPagerAllocReadWrite(t *testing.T) {
	p, _ := newTestPager(t, 256)
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id == InvalidPage {
		t.Fatal("Alloc returned InvalidPage")
	}
	buf := make([]byte, p.PageSize())
	copy(buf, "hello pages")
	if err := p.WritePage(id, buf, 7); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, p.PageSize())
	lsn, err := p.ReadPage(id, got)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 7 {
		t.Fatalf("LSN = %d, want 7", lsn)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("read back different data")
	}
}

func TestPagerRejectsBadBufferAndIDs(t *testing.T) {
	p, _ := newTestPager(t, 256)
	id, _ := p.Alloc()
	ps := p.PageSize()
	if err := p.WritePage(id, make([]byte, ps-1), 0); err == nil {
		t.Error("WritePage accepted short buffer")
	}
	if _, err := p.ReadPage(id, make([]byte, ps+1)); err == nil {
		t.Error("ReadPage accepted long buffer")
	}
	if _, err := p.ReadPage(InvalidPage, make([]byte, ps)); err == nil {
		t.Error("ReadPage accepted page 0")
	}
	if err := p.WritePage(PageID(99), make([]byte, ps), 0); err == nil {
		t.Error("WritePage accepted out-of-range page")
	}
	if err := p.Free(PageID(99)); err == nil {
		t.Error("Free accepted out-of-range page")
	}
}

func TestPagerFreeListReuse(t *testing.T) {
	p, _ := newTestPager(t, 256)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	c, _ := p.Alloc()
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	// LIFO reuse: the most recently freed page comes back first.
	r1, _ := p.Alloc()
	r2, _ := p.Alloc()
	if r1 != a || r2 != b {
		t.Fatalf("free list reuse: got %d,%d want %d,%d", r1, r2, a, b)
	}
	// A fresh alloc extends the file.
	r3, _ := p.Alloc()
	if r3 != c+1 {
		t.Fatalf("expected extension to page %d, got %d", c+1, r3)
	}
}

func TestPagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	p, err := Create(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := p.Alloc()
	buf := make([]byte, p.PageSize())
	rng := rand.New(rand.NewSource(61))
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
	if err := p.WritePage(id, buf, 42); err != nil {
		t.Fatal(err)
	}
	p.SetRoot(3, uint64(id))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.PageSize() != 512-PageFooterSize {
		t.Fatalf("PageSize = %d, want %d", q.PageSize(), 512-PageFooterSize)
	}
	if q.PhysicalPageSize() != 512 {
		t.Fatalf("PhysicalPageSize = %d, want 512", q.PhysicalPageSize())
	}
	if got := q.Root(3); got != uint64(id) {
		t.Fatalf("Root(3) = %d, want %d", got, id)
	}
	got := make([]byte, q.PageSize())
	lsn, err := q.ReadPage(PageID(q.Root(3)), got)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 {
		t.Fatalf("LSN lost across reopen: got %d, want 42", lsn)
	}
	if !bytes.Equal(buf, got) {
		t.Fatal("page contents lost across reopen")
	}
	// Free list survives too.
	if err := q.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestPagerWALBasePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.db")
	p, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	p.SetWALBase(123456)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if got := q.WALBase(); got != 123456 {
		t.Fatalf("WALBase = %d, want 123456", got)
	}
}

func TestPagerMetaVersionTracksMutations(t *testing.T) {
	p, _ := newTestPager(t, 256)
	v0 := p.MetaVersion()
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	if p.MetaVersion() == v0 {
		t.Fatal("Alloc did not bump the meta version")
	}
	v1 := p.MetaVersion()
	p.SetRoot(0, 99)
	if p.MetaVersion() == v1 {
		t.Fatal("SetRoot did not bump the meta version")
	}
}

func TestPagerOpenRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.db")
	p, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(filepath.Join(t.TempDir(), "missing.db")); err == nil {
		t.Error("Open accepted missing file")
	}
}

func TestBufferPoolBasic(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, err := NewBufferPool(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data, "cached")
	id := f.ID
	bp.Unpin(f, true)
	// Hit.
	g, err := bp.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(g.Data[:6]) != "cached" {
		t.Fatalf("cached data = %q", g.Data[:6])
	}
	bp.Unpin(g, false)
	st := bp.Stats()
	if st.Hits != 1 {
		t.Fatalf("Hits = %d, want 1", st.Hits)
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, err := NewBufferPool(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data[0] = byte(i + 1)
		ids = append(ids, f.ID)
		bp.Unpin(f, true)
	}
	// Pages 0..2 must have been evicted and written back; re-reading them
	// through the pool must return the stored bytes.
	for i, id := range ids {
		f, err := bp.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.Data[0] != byte(i+1) {
			t.Fatalf("page %d: data[0] = %d, want %d", id, f.Data[0], i+1)
		}
		bp.Unpin(f, false)
	}
	if st := bp.Stats(); st.Evictions == 0 || st.Flushes == 0 {
		t.Fatalf("expected evictions and flushes, got %+v", st)
	}
}

func TestBufferPoolAllPinned(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, err := NewBufferPool(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := bp.NewPage()
	b, _ := bp.NewPage()
	if _, err := bp.NewPage(); err == nil {
		t.Fatal("NewPage succeeded with all frames pinned")
	}
	bp.Unpin(a, false)
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("NewPage failed after unpin: %v", err)
	}
	bp.Unpin(b, false)
}

func TestBufferPoolUnpinPanicsWhenUnpinned(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, _ := NewBufferPool(p, 2)
	f, _ := bp.NewPage()
	bp.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpin did not panic")
		}
	}()
	bp.Unpin(f, false)
}

func TestBufferPoolFlushAllPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flush.db")
	p, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	bp, _ := NewBufferPool(p, 8)
	f, _ := bp.NewPage()
	copy(f.Data, "durable")
	id := f.ID
	bp.Unpin(f, true)
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.Close()

	q, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	buf := make([]byte, q.PageSize())
	if _, err := q.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:7]) != "durable" {
		t.Fatalf("data = %q", buf[:7])
	}
}

func TestBufferPoolDiscard(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, _ := NewBufferPool(p, 4)
	f, _ := bp.NewPage()
	id := f.ID
	if err := bp.Discard(id); err == nil {
		t.Fatal("Discard succeeded on pinned page")
	}
	bp.Unpin(f, true)
	if err := bp.Discard(id); err != nil {
		t.Fatal(err)
	}
	// The freed page is reused by the next allocation.
	g, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if g.ID != id {
		t.Fatalf("freed page not reused: got %d, want %d", g.ID, id)
	}
	bp.Unpin(g, false)
}

// filledPage allocates a page through the pool, fills it with b and
// unpins it dirty.
func filledPage(t *testing.T, bp *BufferPool, b byte) PageID {
	t.Helper()
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Data {
		f.Data[i] = b
	}
	bp.Unpin(f, true)
	return f.ID
}

// TestBufferPoolRecycledBufferNeverAliases walks a 2-frame pool through
// evict A, admit C, re-read A: C takes over A's old buffer and A comes
// back in B's, and each pinned frame must show its own page's bytes in
// its own memory.
func TestBufferPoolRecycledBufferNeverAliases(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, err := NewBufferPool(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := filledPage(t, bp, 0xA1)
	filledPage(t, bp, 0xB2)
	c := filledPage(t, bp, 0xC3) // evicts A: its buffer is recycled for C
	fc, err := bp.Get(c)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := bp.Get(a) // evicts B, reads A back into B's old buffer
	if err != nil {
		t.Fatal(err)
	}
	if &fa.Data[0] == &fc.Data[0] {
		t.Fatal("two resident frames share one buffer")
	}
	want := func(f *Frame, b byte) {
		t.Helper()
		for i, got := range f.Data {
			if got != b {
				t.Fatalf("page %d byte %d = %#x, want %#x", f.ID, i, got, b)
			}
		}
	}
	want(fa, 0xA1)
	want(fc, 0xC3)
	fa.Data[0] = 0 // a write through one frame must not show in the other
	want(fc, 0xC3)
	bp.Unpin(fa, false)
	bp.Unpin(fc, false)
	if st := bp.Stats(); st.Evictions < 2 {
		t.Fatalf("expected at least 2 evictions, got %+v", st)
	}
}

// TestBufferPoolNewPageZeroesRecycledBuffer: a fresh page must read as
// zeros even when its frame inherits a buffer full of another page.
func TestBufferPoolNewPageZeroesRecycledBuffer(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, err := NewBufferPool(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	filledPage(t, bp, 0xFF)
	f, err := bp.NewPage() // evicts the 0xFF page and takes its buffer
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(f, false)
	if bp.Stats().Evictions != 1 {
		t.Fatalf("expected the first page to be evicted, got %+v", bp.Stats())
	}
	for i, b := range f.Data {
		if b != 0 {
			t.Fatalf("new page byte %d = %#x, want 0", i, b)
		}
	}
}

// TestBufferPoolSpareListBounded drops far more frames than the spare
// list may keep and checks it stops growing.
func TestBufferPoolSpareListBounded(t *testing.T) {
	p, _ := newTestPager(t, 256)
	n := 4 * maxSpareBuffers
	bp, err := NewBufferPool(p, n)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]PageID, n)
	for i := range ids {
		ids[i] = filledPage(t, bp, 1)
	}
	for _, id := range ids {
		if err := bp.Discard(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(bp.spare); got != maxSpareBuffers {
		t.Fatalf("spare list holds %d buffers after %d drops, want %d", got, n, maxSpareBuffers)
	}
}

func TestNewBufferPoolRejectsZeroCapacity(t *testing.T) {
	p, _ := newTestPager(t, 256)
	if _, err := NewBufferPool(p, 0); err == nil {
		t.Fatal("NewBufferPool accepted capacity 0")
	}
}

// TestBufferPoolNoStealUnderHook: with a FlushHook installed, dirty
// frames are not evicted — the pool prefers exhaustion over writing
// possibly-uncommitted pages (no-steal).
func TestBufferPoolNoStealUnderHook(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, _ := NewBufferPool(p, 2)
	hookCalls := 0
	bp.SetFlushHook(func(id PageID, lsn uint64) error {
		hookCalls++
		return nil
	})
	a, _ := bp.NewPage()
	b, _ := bp.NewPage()
	bp.Unpin(a, true)
	bp.Unpin(b, true)
	if _, err := bp.NewPage(); err == nil {
		t.Fatal("NewPage evicted a dirty frame despite no-steal")
	}
	if hookCalls != 0 {
		t.Fatalf("hook called %d times during failed admission", hookCalls)
	}
	// FlushAll cleans the frames (consulting the hook), after which
	// eviction works again.
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if hookCalls != 2 {
		t.Fatalf("hook called %d times during FlushAll, want 2", hookCalls)
	}
	if _, err := bp.NewPage(); err != nil {
		t.Fatalf("NewPage still failing after FlushAll: %v", err)
	}
}

// TestBufferPoolLogDirty: LogDirty visits dirty frames in PageID order,
// stamps the returned LSNs, and skips already-logged frames next time.
func TestBufferPoolLogDirty(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, _ := NewBufferPool(p, 8)
	var ids []PageID
	for i := 0; i < 3; i++ {
		f, _ := bp.NewPage()
		ids = append(ids, f.ID)
		bp.Unpin(f, true)
	}
	var visited []PageID
	next := uint64(100)
	log := func(id PageID, data []byte) (uint64, error) {
		visited = append(visited, id)
		next++
		return next, nil
	}
	if err := bp.LogDirty(log); err != nil {
		t.Fatal(err)
	}
	if len(visited) != 3 {
		t.Fatalf("visited %d frames, want 3", len(visited))
	}
	for i := 1; i < len(visited); i++ {
		if visited[i-1] >= visited[i] {
			t.Fatalf("LogDirty order not ascending: %v", visited)
		}
	}
	// All logged: a second pass visits nothing.
	visited = nil
	if err := bp.LogDirty(log); err != nil {
		t.Fatal(err)
	}
	if len(visited) != 0 {
		t.Fatalf("second LogDirty visited %v", visited)
	}
	// Re-dirtying one frame re-queues just that frame.
	f, _ := bp.Get(ids[1])
	f.Data[0] = 9
	bp.Unpin(f, true)
	visited = nil
	if err := bp.LogDirty(log); err != nil {
		t.Fatal(err)
	}
	if len(visited) != 1 || visited[0] != ids[1] {
		t.Fatalf("after re-dirty, visited %v, want [%d]", visited, ids[1])
	}
	if f.LSN != next {
		t.Fatalf("frame LSN = %d, want %d", f.LSN, next)
	}
}

// failAfterFile wraps a File and fails WriteAt once armed.
type failAfterFile struct {
	File
	fail bool
}

func (f *failAfterFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fail {
		return 0, errors.New("injected write failure")
	}
	return f.File.WriteAt(p, off)
}

// TestBufferPoolEvictionErrorIsSticky: a failed dirty write-back during
// eviction must not lose the error — it is counted, surfaced by Err, and
// returned from subsequent pool calls.
func TestBufferPoolEvictionErrorIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sticky.db")
	inner, err := Create(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	ff := &failAfterFile{File: inner.f}
	p := inner
	p.f = ff

	bp, _ := NewBufferPool(p, 2)
	a, _ := bp.NewPage()
	b, _ := bp.NewPage()
	bp.Unpin(a, true)
	bp.Unpin(b, true)
	c, _ := bp.NewPage() // evicts a (write-back succeeds, device healthy)
	bp.Unpin(c, true)

	// Now frames b and c are resident and dirty; re-reading a must evict
	// one of them, and that write-back fails.
	ff.fail = true
	if _, err := bp.Get(a.ID); err == nil {
		t.Fatal("Get succeeded while write-backs fail")
	}
	if err := bp.Err(); err == nil {
		t.Fatal("Err() returned nil after failed write-back")
	}
	if st := bp.Stats(); st.FailedWriteBacks == 0 {
		t.Fatalf("FailedWriteBacks = 0, want > 0: %+v", st)
	}
	// The sticky error surfaces from every later call, even after the
	// underlying device "recovers".
	ff.fail = false
	if _, err := bp.Get(a.ID); err == nil {
		t.Fatal("Get did not surface the sticky I/O error")
	}
	if err := bp.FlushAll(); err == nil {
		t.Fatal("FlushAll did not surface the sticky I/O error")
	}
}

// TestPagerManyPagesStress: a few thousand alloc/write/read/free cycles
// through a small buffer pool keep data intact.
func TestPagerManyPagesStress(t *testing.T) {
	p, _ := newTestPager(t, 256)
	bp, _ := NewBufferPool(p, 8)
	rng := rand.New(rand.NewSource(62))
	content := make(map[PageID]byte)
	var live []PageID
	for i := 0; i < 3000; i++ {
		switch {
		case len(live) == 0 || rng.Intn(3) > 0:
			f, err := bp.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			b := byte(rng.Intn(256))
			f.Data[10] = b
			content[f.ID] = b
			live = append(live, f.ID)
			bp.Unpin(f, true)
		default:
			idx := rng.Intn(len(live))
			id := live[idx]
			f, err := bp.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if f.Data[10] != content[id] {
				t.Fatalf("page %d: data %d, want %d", id, f.Data[10], content[id])
			}
			bp.Unpin(f, false)
			if rng.Intn(2) == 0 {
				if err := bp.Discard(id); err != nil {
					t.Fatal(err)
				}
				delete(content, id)
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
	}
}

func TestPagerStats(t *testing.T) {
	p, _ := newTestPager(t, 256)
	s, err := p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalPages != 1 || s.FreePages != 0 || s.PageSize != 256-PageFooterSize {
		t.Fatalf("fresh stats: %+v", s)
	}
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	s, err = p.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalPages != 3 || s.FreePages != 2 {
		t.Fatalf("stats after free: %+v", s)
	}
	// Reuse shrinks the free list.
	if _, err := p.Alloc(); err != nil {
		t.Fatal(err)
	}
	s, _ = p.Stats()
	if s.FreePages != 1 {
		t.Fatalf("stats after realloc: %+v", s)
	}
}

// TestBufferPoolDirtyCountMatchesRecount drives a small pool through a
// random mix of every dirty↔clean transition — NewPage, Get, Unpin
// clean and dirty, FlushAll, Discard, LogDirty, and evictions with and
// without the no-steal hook — and checks after each step that the O(1)
// DirtyCount equals a recount of the resident frames.
func TestBufferPoolDirtyCountMatchesRecount(t *testing.T) {
	for _, noSteal := range []bool{false, true} {
		p, _ := newTestPager(t, 256)
		bp, err := NewBufferPool(p, 6)
		if err != nil {
			t.Fatal(err)
		}
		if noSteal {
			bp.SetFlushHook(func(PageID, uint64) error { return nil })
		}
		recount := func() int {
			bp.mu.Lock()
			defer bp.mu.Unlock()
			n := 0
			for _, f := range bp.frames {
				if f.dirty {
					n++
				}
			}
			return n
		}
		rng := rand.New(rand.NewSource(45))
		var pages []PageID
		var pinned []*Frame
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 2:
				if f, err := bp.NewPage(); err == nil {
					pages = append(pages, f.ID)
					pinned = append(pinned, f)
				}
			case op < 5 && len(pages) > 0:
				if f, err := bp.Get(pages[rng.Intn(len(pages))]); err == nil {
					pinned = append(pinned, f)
				}
			case op < 8 && len(pinned) > 0:
				i := rng.Intn(len(pinned))
				bp.Unpin(pinned[i], rng.Intn(2) == 0)
				pinned = append(pinned[:i], pinned[i+1:]...)
			case op == 8:
				if rng.Intn(2) == 0 {
					if err := bp.FlushAll(); err != nil {
						t.Fatal(err)
					}
				} else if err := bp.LogDirty(func(PageID, []byte) (uint64, error) { return uint64(step + 1), nil }); err != nil {
					t.Fatal(err)
				}
			case op == 9 && len(pages) > 0:
				i := rng.Intn(len(pages))
				if err := bp.Discard(pages[i]); err == nil {
					pages = append(pages[:i], pages[i+1:]...)
				}
			}
			if got, want := bp.DirtyCount(), recount(); got != want {
				t.Fatalf("noSteal=%v step %d: DirtyCount %d, recount %d", noSteal, step, got, want)
			}
		}
		if bp.Stats().Evictions == 0 {
			t.Fatalf("noSteal=%v: the run never evicted", noSteal)
		}
	}
}
