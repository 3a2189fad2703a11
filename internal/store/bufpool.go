package store

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"walrus/internal/obs"
)

// Frame is a buffered page. Callers obtain Frames from a BufferPool, read
// or modify Data, and must Unpin when done, marking the frame dirty if it
// was modified. A pinned frame's Data is stable; once unpinned it may be
// evicted and reused at any time.
type Frame struct {
	ID   PageID
	Data []byte

	// LSN is the WAL position of the frame's last logged image; it is
	// stamped into the page footer when the frame is written back.
	LSN uint64

	pins   int
	dirty  bool
	logged bool // current contents captured in the WAL (see LogDirty)
	elem   *list.Element

	// checked is the "contents checked" mark (see Checked). An atomic,
	// because readers sharing a pin set it without the pool's lock.
	checked atomic.Bool
}

// Checked reports whether the frame's current contents were marked by
// MarkChecked. The pool clears the mark whenever the bytes may change: a
// freshly admitted frame starts unmarked, and Unpin with dirty set clears
// it. An owner that validates its pages (a checksum over bytes read from
// disk) can so run the check once per residence instead of on every
// access: check an unmarked frame, then mark it.
func (f *Frame) Checked() bool { return f.checked.Load() }

// MarkChecked marks the frame's current contents as checked. The caller
// holds a pin and has verified Data since it was admitted or last
// modified.
func (f *Frame) MarkChecked() { f.checked.Store(true) }

// FlushHook is consulted immediately before a dirty page is written back
// to the pager. A WAL-backed database installs a hook that forces the log
// durable up to the frame's LSN, enforcing the log-before-flush (WAL)
// invariant. While a hook is installed the pool also stops evicting dirty
// frames (no-steal policy): uncommitted page images never reach the page
// file, so redo-only recovery suffices.
type FlushHook func(id PageID, lsn uint64) error

// BufferPool caches pages of a Pager in memory with LRU replacement.
// It is safe for concurrent use.
type BufferPool struct {
	pager *Pager
	cap   int

	mu     sync.Mutex
	frames map[PageID]*Frame
	lru    *list.List  // front = most recently used; holds unpinned and pinned frames alike
	om     poolMetrics // guarded by mu; zero value = observability off
	hook   FlushHook
	ioErr  error // sticky: first failed write-back, surfaced on later calls
	dirty  int   // resident frames with dirty set, kept by setDirty and drop
	// spare holds the page buffers of dropped frames for admit to reuse:
	// a pool running at capacity evicts one frame per miss, and without
	// this every miss would allocate (and the GC later sweep) a page.
	spare [][]byte
}

// maxSpareBuffers bounds BufferPool.spare. Steady-state eviction keeps at
// most one buffer there; the slack absorbs bursts of Discard.
const maxSpareBuffers = 16

// NewBufferPool wraps a pager with a cache of at most capacity pages.
func NewBufferPool(p *Pager, capacity int) (*BufferPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("store: buffer pool capacity %d < 1", capacity)
	}
	return &BufferPool{
		pager:  p,
		cap:    capacity,
		frames: make(map[PageID]*Frame),
		lru:    list.New(),
	}, nil
}

// SetFlushHook installs (or, with nil, removes) the log-before-flush
// hook. See FlushHook for the eviction-policy consequences.
func (bp *BufferPool) SetFlushHook(h FlushHook) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.hook = h
}

// Err returns the pool's sticky I/O error: the first dirty write-back
// failure during eviction. Once set it is also returned by Get, NewPage
// and FlushAll, since the cached state can no longer be trusted to reach
// disk.
func (bp *BufferPool) Err() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.ioErr
}

// Get returns a pinned frame for page id, reading it from disk on a miss.
func (bp *BufferPool) Get(id PageID) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.ioErr != nil {
		return nil, bp.ioErr
	}
	if f, ok := bp.frames[id]; ok {
		bp.om.hits.Inc()
		f.pins++
		bp.lru.MoveToFront(f.elem)
		return f, nil
	}
	bp.om.misses.Inc()
	f, err := bp.admit(id)
	if err != nil {
		return nil, err
	}
	lsn, err := bp.pager.ReadPage(id, f.Data)
	if err != nil {
		bp.drop(f)
		return nil, err
	}
	f.LSN = lsn
	return f, nil
}

// NewPage allocates a fresh page and returns it pinned and zeroed. The
// frame starts dirty so it is written back even if the caller stores
// nothing.
func (bp *BufferPool) NewPage() (*Frame, error) {
	id, err := bp.pager.Alloc()
	if err != nil {
		return nil, err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.ioErr != nil {
		return nil, bp.ioErr
	}
	f, err := bp.admit(id)
	if err != nil {
		return nil, err
	}
	for i := range f.Data {
		f.Data[i] = 0
	}
	bp.setDirty(f, true)
	f.logged = false
	return f, nil
}

// admit makes room if needed and installs a new pinned frame for id.
// Caller holds bp.mu.
func (bp *BufferPool) admit(id PageID) (*Frame, error) {
	for len(bp.frames) >= bp.cap {
		if !bp.evictOneLocked() {
			if bp.ioErr != nil {
				return nil, bp.ioErr
			}
			if bp.hook != nil {
				return nil, fmt.Errorf("store: buffer pool exhausted: all %d frames pinned or dirty (WAL no-steal); commit or raise the pool capacity", bp.cap)
			}
			return nil, fmt.Errorf("store: buffer pool exhausted: all %d frames pinned", bp.cap)
		}
	}
	var data []byte
	if n := len(bp.spare); n > 0 {
		// Contents are the evicted page's: Get overwrites the whole buffer
		// from ReadPage and NewPage zeroes it.
		data, bp.spare = bp.spare[n-1], bp.spare[:n-1]
	} else {
		data = make([]byte, bp.pager.PageSize())
	}
	f := &Frame{ID: id, Data: data, pins: 1}
	f.elem = bp.lru.PushFront(f)
	bp.frames[id] = f
	return f, nil
}

// evictOneLocked removes the least recently used evictable frame, flushing it
// if dirty (steal). Under a FlushHook dirty frames are not evictable
// (no-steal). A failed write-back records the pool's sticky I/O error and
// keeps the frame resident rather than lose data. Returns false if no
// frame could be evicted. Caller holds bp.mu.
func (bp *BufferPool) evictOneLocked() bool {
	for e := bp.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*Frame)
		if f.pins > 0 {
			continue
		}
		if f.dirty {
			if bp.hook != nil {
				// No-steal: this frame may hold uncommitted data; only a
				// checkpoint (FlushAll) may write it back.
				continue
			}
			var start time.Time
			if bp.om.reg != nil {
				start = obs.Clock()
			}
			if err := bp.pager.WritePage(f.ID, f.Data, f.LSN); err != nil {
				bp.om.failedWriteBacks.Inc()
				if bp.ioErr == nil {
					bp.ioErr = fmt.Errorf("store: evicting page %d: %w", f.ID, err)
				}
				continue
			}
			bp.om.flushes.Inc()
			if bp.om.reg != nil {
				bp.om.reg.RecordSpan("bufpool.evict", 0, start, obs.Since(start),
					obs.Attr{Key: "page", Value: int64(f.ID)})
			}
		}
		bp.drop(f)
		bp.om.evictions.Inc()
		return true
	}
	return false
}

// drop removes a frame from the pool and keeps its page buffer for the
// next admit. The frame gives the buffer up — a stale *Frame (use after
// Unpin was never valid) now fails loudly instead of aliasing whichever
// page the buffer holds next. Caller holds bp.mu.
func (bp *BufferPool) drop(f *Frame) {
	bp.setDirty(f, false)
	bp.lru.Remove(f.elem)
	delete(bp.frames, f.ID)
	if len(bp.spare) < maxSpareBuffers {
		bp.spare = append(bp.spare, f.Data)
	}
	f.Data = nil
}

// Unpin releases one pin on f; dirty marks the page as modified, which
// also clears its Checked mark.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f.pins <= 0 {
		panic("store: Unpin of unpinned frame")
	}
	f.pins--
	if dirty {
		bp.setDirty(f, true)
		f.logged = false
		f.checked.Store(false)
	}
}

// setDirty sets f's dirty flag and keeps the pool's count of dirty frames.
// Caller holds bp.mu.
func (bp *BufferPool) setDirty(f *Frame, dirty bool) {
	if f.dirty == dirty {
		return
	}
	f.dirty = dirty
	if dirty {
		bp.dirty++
	} else {
		bp.dirty--
	}
}

// DirtyCount returns the number of dirty frames resident in the pool.
// The WAL commit path uses it, on every commit, to decide when to
// checkpoint; it is a counter read, not a scan.
func (bp *BufferPool) DirtyCount() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.dirty
}

// LogDirty passes every frame whose contents changed since its last
// logging to fn (in PageID order, for deterministic logs) and stamps the
// returned LSN on the frame. The WAL commit path uses it to capture redo
// images of all pages a transaction touched before they can reach disk.
func (bp *BufferPool) LogDirty(fn func(id PageID, data []byte) (uint64, error)) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.ioErr != nil {
		return bp.ioErr
	}
	var pending []*Frame
	for _, f := range bp.frames {
		if f.dirty && !f.logged {
			pending = append(pending, f)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })
	for _, f := range pending {
		lsn, err := fn(f.ID, f.Data)
		if err != nil {
			return err
		}
		f.LSN = lsn
		f.logged = true
	}
	return nil
}

// FlushAll writes every dirty frame back and syncs the pager, invoking
// the FlushHook (log-before-flush) ahead of each write-back. Pinned
// frames are flushed but stay resident.
func (bp *BufferPool) FlushAll() error {
	bp.mu.Lock()
	if bp.ioErr != nil {
		bp.mu.Unlock()
		return bp.ioErr
	}
	for _, f := range bp.frames {
		if !f.dirty {
			continue
		}
		if bp.hook != nil {
			if err := bp.hook(f.ID, f.LSN); err != nil {
				bp.mu.Unlock()
				return err
			}
		}
		if err := bp.pager.WritePage(f.ID, f.Data, f.LSN); err != nil {
			bp.mu.Unlock()
			return err
		}
		bp.setDirty(f, false)
		// mu is still held here; the linear lock scan mistakes the
		// error-branch Unlocks above for a release.
		bp.om.flushes.Inc() //walrus:lint-ignore lockdiscipline mu held; linear scan false positive after error-branch Unlock
	}
	bp.mu.Unlock()
	return bp.pager.Sync()
}

// Discard drops page id from the cache without writing it back and frees
// it in the pager. The page must not be pinned.
func (bp *BufferPool) Discard(id PageID) error {
	bp.mu.Lock()
	if f, ok := bp.frames[id]; ok {
		if f.pins > 0 {
			bp.mu.Unlock()
			return fmt.Errorf("store: Discard of pinned page %d", id)
		}
		bp.drop(f)
	}
	bp.mu.Unlock()
	return bp.pager.Free(id)
}
