package rstar

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"walrus/internal/obs"
)

// VersionedStore wraps a NodeStore with multi-version concurrency: the
// base store always holds the newest state (so WAL logging and
// checkpointing see every write immediately), while an overlay of
// pre-images preserves each node's prior version for readers pinned to an
// older epoch. One writer at a time mutates through the NodeStore
// interface; any number of readers traverse epoch-consistent views
// (TreeView) without blocking the writer beyond the short per-node
// critical sections of this lock.
//
// Epoch scheme: writes accumulate in epoch published+1. Publish makes
// them visible — a subsequent Pin returns the new epoch — and reclaims
// every pre-image no pinned reader can still need. Before the first
// Publish no reader exists, so construction-time writes (New, Create,
// BulkLoad top-ups) skip pre-image capture entirely.
type VersionedStore struct {
	base pageStore
	lay  layout // base's, to scan overlay pages

	mu        sync.RWMutex
	published uint64 // epoch visible to new pins; 0 = never published
	pins      map[uint64]int
	pinned    []uint64 // distinct pinned epochs, ascending

	// overlay holds superseded node versions: overlay[id] is ordered by
	// ascending supersededAt, and version v is the node's state for every
	// epoch < v.supersededAt (down to the previous version's bound).
	overlay map[NodeID][]nodeVersion
	meta    []metaVersion
	// fresh marks nodes created in the current write epoch: no pinned
	// epoch can reference them, so their overwrites need no pre-image
	// (this also suppresses garbage captures when a freed page is
	// reused by the pager).
	fresh    map[NodeID]bool
	retained int // live overlay node versions, for leak checks

	retainedG *obs.Gauge // nil = observability off; guarded by mu
	pinsG     *obs.Gauge
}

// nodeVersion is one superseded node as page bytes: a MemStore's replaced
// slice, or a checked copy of a PagedStore frame.
type nodeVersion struct {
	page         []byte
	supersededAt uint64
}

// pageStore is a NodeStore whose nodes are pages a VersionedStore can
// keep as pre-images: MemStore and PagedStore.
type pageStore interface {
	NodeStore
	Leaves() LeafKind
	// page returns node id's header and entries as bytes the store never
	// writes again.
	page(id NodeID) ([]byte, error)
}

type metaVersion struct {
	meta         Meta
	supersededAt uint64
}

// NewVersioned wraps base with epoch-based versioning. The wrapper owns
// all access to base from then on: mutators must go through the returned
// store, never through base directly (construction-time bulk loading
// against base before the wrapper's first Publish is the one sanctioned
// exception — see Load in bulk-build callers). base must be a MemStore or
// a PagedStore.
func NewVersioned(base NodeStore) *VersionedStore {
	ps := base.(pageStore)
	return &VersionedStore{
		base:    ps,
		lay:     layout{dim: ps.Dim(), points: ps.Leaves() == PointLeaves},
		pins:    make(map[uint64]int),
		overlay: make(map[NodeID][]nodeVersion),
		fresh:   make(map[NodeID]bool),
	}
}

// Dim implements NodeStore.
func (v *VersionedStore) Dim() int { return v.base.Dim() }

// MaxEntries implements NodeStore.
func (v *VersionedStore) MaxEntries(leaf bool) int { return v.base.MaxEntries(leaf) }

// New implements NodeStore (writer side).
func (v *VersionedStore) New(leaf bool) (*Node, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n, err := v.base.New(leaf)
	if err != nil {
		return nil, err
	}
	if v.published > 0 {
		v.fresh[n.ID] = true
	}
	return n, nil
}

// Get implements NodeStore (writer side): it returns the newest version.
func (v *VersionedStore) Get(id NodeID) (*Node, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.base.Get(id)
}

// Put implements NodeStore: the node's prior state is captured as a
// pre-image for pinned readers, then the write goes through to the base.
func (v *VersionedStore) Put(n *Node) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.captureLocked(n.ID); err != nil {
		return err
	}
	return v.base.Put(n)
}

// Free implements NodeStore. The freed node's last state stays readable
// at pinned epochs via the overlay; the base page may be reused at once.
func (v *VersionedStore) Free(id NodeID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.fresh[id] {
		// Created and dropped within one unpublished epoch: no pinned
		// reader can ever have seen it.
		delete(v.fresh, id)
		return v.base.Free(id)
	}
	if err := v.captureLocked(id); err != nil {
		return err
	}
	return v.base.Free(id)
}

// Meta implements NodeStore (writer side: newest metadata).
func (v *VersionedStore) Meta() (Meta, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.base.Meta()
}

// SetMeta implements NodeStore, capturing the prior metadata once per
// write epoch.
func (v *VersionedStore) SetMeta(m Meta) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.published > 0 {
		write := v.published + 1
		if len(v.meta) == 0 || v.meta[len(v.meta)-1].supersededAt != write {
			old, err := v.base.Meta()
			if err != nil {
				return err
			}
			v.meta = append(v.meta, metaVersion{meta: old, supersededAt: write})
		}
	}
	return v.base.SetMeta(m)
}

// captureLocked records the node's current base state as the pre-image of
// the current write epoch, at most once per node per epoch. Nodes created
// this epoch need no pre-image, and before the first Publish there are no
// readers to preserve state for.
func (v *VersionedStore) captureLocked(id NodeID) error {
	if v.published == 0 || v.fresh[id] {
		return nil
	}
	write := v.published + 1
	chain := v.overlay[id]
	if len(chain) > 0 && chain[len(chain)-1].supersededAt == write {
		return nil
	}
	// A MemStore hands out its own page, which Put replaces rather than
	// rewrites; a PagedStore copies the frame after checking it.
	old, err := v.base.page(id)
	if err != nil {
		return err
	}
	v.overlay[id] = append(chain, nodeVersion{page: old, supersededAt: write})
	v.retained++
	if v.retainedG != nil {
		v.retainedG.Set(int64(v.retained))
	}
	return nil
}

// Publish makes every write since the previous Publish visible to new
// pins and reclaims superseded versions no pinned reader can need.
// It returns the newly published epoch.
func (v *VersionedStore) Publish() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.published++
	clear(v.fresh)
	v.reclaimLocked()
	return v.published
}

// Pin registers a reader at the currently published epoch and returns it.
// Every Pin must be paired with exactly one Unpin.
func (v *VersionedStore) Pin() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.published
	if v.pins[e] == 0 {
		// Pin always pins the newest epoch, so appends keep the slice
		// ascending.
		v.pinned = append(v.pinned, e)
	}
	v.pins[e]++
	if v.pinsG != nil {
		v.pinsG.Set(int64(len(v.pinned)))
	}
	return e
}

// Unpin releases a Pin, reclaiming any versions only that epoch needed.
func (v *VersionedStore) Unpin(epoch uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := v.pins[epoch] - 1
	if n > 0 {
		v.pins[epoch] = n
	} else {
		delete(v.pins, epoch)
		for i, e := range v.pinned {
			if e == epoch {
				v.pinned = append(v.pinned[:i], v.pinned[i+1:]...)
				break
			}
		}
		v.reclaimLocked()
	}
	if v.pinsG != nil {
		v.pinsG.Set(int64(len(v.pinned)))
	}
}

// reclaimLocked drops every overlay version whose supersededAt epoch is
// neither ahead of the published epoch (still the pending write) nor
// ahead of some pinned reader. A version superseded at S serves exactly
// the epochs below S, so it is garbage once min(published, minPinned) >= S.
func (v *VersionedStore) reclaimLocked() {
	cutoff := v.published
	if len(v.pinned) > 0 && v.pinned[0] < cutoff {
		cutoff = v.pinned[0]
	}
	ids := make([]NodeID, 0, len(v.overlay))
	for id := range v.overlay {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		chain := v.overlay[id]
		drop := 0
		for drop < len(chain) && chain[drop].supersededAt <= cutoff {
			drop++
		}
		if drop == 0 {
			continue
		}
		v.retained -= drop
		if drop == len(chain) {
			delete(v.overlay, id)
		} else {
			v.overlay[id] = chain[drop:]
		}
	}
	dropMeta := 0
	for dropMeta < len(v.meta) && v.meta[dropMeta].supersededAt <= cutoff {
		dropMeta++
	}
	v.meta = v.meta[dropMeta:]
	if v.retainedG != nil {
		v.retainedG.Set(int64(v.retained))
	}
}

// scan scans node id for the descent as of d.epoch: the oldest overlay
// version still covering the epoch, or the base state when the node has not
// been rewritten since. The read lock is held for the scan only — it keeps
// the writer from replacing the version (or reusing its page) underneath —
// and the descent visits children after it is released, so searches never
// nest it.
func (v *VersionedStore) scan(d *descent, id NodeID, lo, hi int) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, ver := range v.overlay[id] {
		if ver.supersededAt > d.epoch {
			v.lay.scanPage(d, ver.page, lo, hi)
			return nil
		}
	}
	return scanStore(v.base, d, id, lo, hi)
}

// metaAt resolves tree metadata as of a pinned epoch.
func (v *VersionedStore) metaAt(epoch uint64) (Meta, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, ver := range v.meta {
		if ver.supersededAt > epoch {
			return ver.meta, nil
		}
	}
	return v.base.Meta()
}

// Retained reports how many superseded node versions the overlay holds —
// zero once every reader has released and the writer has published.
func (v *VersionedStore) Retained() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.retained
}

// setMetrics wires the store's reclamation gauges into reg; nil detaches.
func (v *VersionedStore) setMetrics(reg *obs.Registry) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if reg == nil {
		v.retainedG, v.pinsG = nil, nil
		return
	}
	v.retainedG = reg.Gauge("walrus_rstar_retained_preimages", "Superseded R*-tree node versions retained for pinned snapshots.")
	v.pinsG = reg.Gauge("walrus_rstar_pinned_epochs", "Distinct R*-tree epochs currently pinned by snapshots.")
	v.retainedG.Set(int64(v.retained))
	v.pinsG.Set(int64(len(v.pinned)))
}

// TreeView is an epoch-pinned, immutable read view of a Tree backed by a
// VersionedStore. Searches on a view observe exactly the tree state at
// the pinned epoch regardless of concurrent writes and publishes. Views
// must be released exactly once; Release is idempotent.
type TreeView struct {
	vs       *VersionedStore
	epoch    uint64
	dim      int
	root     NodeID
	height   int
	size     int
	om       *atomic.Pointer[treeMetrics]
	released atomic.Bool
}

// SnapshotView pins the currently published epoch and returns a read view
// of the tree at that epoch. It fails when the tree's store is not a
// VersionedStore.
func (t *Tree) SnapshotView() (*TreeView, error) {
	vs, ok := t.store.(*VersionedStore)
	if !ok {
		return nil, fmt.Errorf("rstar: tree store is not versioned")
	}
	epoch := vs.Pin()
	m, err := vs.metaAt(epoch)
	if err != nil {
		vs.Unpin(epoch)
		return nil, err
	}
	return &TreeView{vs: vs, epoch: epoch, dim: t.dim, root: m.Root, height: m.Height, size: m.Size, om: &t.om}, nil
}

// PublishEpoch publishes all writes since the last publish on a
// versioned-store tree and returns the new epoch; it returns 0 when the
// store is unversioned.
func (t *Tree) PublishEpoch() uint64 {
	if vs, ok := t.store.(*VersionedStore); ok {
		return vs.Publish()
	}
	return 0
}

// Versioned returns the tree's VersionedStore, or nil when the tree runs
// directly on an unversioned store.
func (t *Tree) Versioned() *VersionedStore {
	vs, _ := t.store.(*VersionedStore)
	return vs
}

// Epoch returns the view's pinned epoch.
func (tv *TreeView) Epoch() uint64 { return tv.epoch }

// Release unpins the view's epoch, allowing its retained pre-images to be
// reclaimed. Calling Release more than once is harmless.
func (tv *TreeView) Release() {
	if tv.released.CompareAndSwap(false, true) {
		tv.vs.Unpin(tv.epoch)
	}
}
