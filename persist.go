package walrus

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"

	"walrus/internal/parallel"
	"walrus/internal/region"
	"walrus/internal/rstar"
	"walrus/internal/store"
	"walrus/internal/wal"
)

// File names inside a disk-backed database directory.
const (
	indexFileName   = "index.db"
	walFileName     = "wal.log"
	catalogFileName = "catalog.gob"
)

// heapRootSlot is the pager root slot holding the region heap's first
// page (slots 0-2 belong to the paged R*-tree).
const heapRootSlot = 3

// Durability machinery tuning.
const (
	// poolCapacity is the buffer pool size in pages.
	poolCapacity = 256
	// groupCommitBytes is the fsync threshold of DurabilityGroupCommit:
	// the log is forced once this many unsynced bytes accumulate.
	groupCommitBytes = 256 << 10
	// walSoftLimit triggers an automatic checkpoint (which resets the
	// log) once the log outgrows it.
	walSoftLimit = 4 << 20
	// initialLSN starts the LSN stream at 1 because LSN 0 means "never
	// logged" throughout the storage layer.
	initialLSN = wal.LSN(1)
)

// WAL app-record kinds (the wal package treats them as opaque).
const (
	// kindDelta tags a gob-encoded walDelta: one committed catalog change.
	kindDelta = 1
	// kindRebuild marks the start of an unlogged bulk rebuild
	// (CreateFrom). Seeing one after the last checkpoint during recovery
	// means the rebuild was interrupted and the database is unusable.
	kindRebuild = 2
)

// walDelta operations.
const (
	deltaAdd    = 1
	deltaRemove = 2
)

// walDelta is the logical catalog change of one committed operation. Page
// images in the log rebuild the index and heap; deltas rebuild the
// in-memory catalog (image metadata and the payload directory) that the
// catalog file only captures as of the last checkpoint.
type walDelta struct {
	Op   uint8
	ID   string
	W, H int
	// RIDs holds the packed heap record ids of the image's regions, in
	// local order (deltaAdd only).
	RIDs []uint64
}

// persistState holds the disk machinery of a disk-backed shard. The page
// file carries both the R*-tree nodes and a slotted-page heap with every
// region's serialized payload (signature, bounding box, bitmap) — the
// paper stores these "in the index along with the signature of each
// region" (Section 5.4). The catalog file holds image metadata and the
// payload directory as of the last checkpoint; the write-ahead log makes
// every operation since then atomic and (policy permitting) durable.
type persistState struct {
	dir  string
	fs   FileOpener // resolved: never nil
	pg   *store.Pager
	pool *store.BufferPool
	ps   *rstar.PagedStore
	heap *store.HeapFile
	wal  *wal.Log

	policy   DurabilityPolicy
	metaVer  uint64 // pager meta version captured by the last logged meta image
	lastLSN  uint64 // LastLSN of the on-disk catalog
	recovery RecoveryStats
	unlogged bool // bulk rebuild in progress: suspend logging
}

// flushHook enforces the log-before-flush invariant: the buffer pool
// consults it before any dirty page write-back.
func (p *persistState) flushHook(id store.PageID, lsn uint64) error {
	return p.wal.EnsureDurable(wal.LSN(lsn), p.policy != DurabilityNone)
}

// catalogImage is the persisted image metadata (regions live in the heap).
type catalogImage struct {
	ID         string
	W, H       int
	NumRegions int
}

// catalogData is the gob-serialized portion of a shard.
type catalogData struct {
	Opts   Options
	Images []catalogImage
	Refs   []regionRef
	// LastLSN is the WAL position of the checkpoint this catalog
	// snapshot belongs to; recovery replays only deltas past it.
	LastLSN uint64
}

// Create creates a disk-backed database in dir (which is created if
// needed) with opts.Shards shards (0 means 1). One shard lives in dir
// itself; more shards each get a self-contained shard-NNNN
// subdirectory — its own index, WAL and catalog — and a shards.json
// manifest recording the count, written last, so a create that fails
// part-way leaves no manifest naming shards that do not exist.
func Create(dir string, opts Options) (*DB, error) {
	return createLayout(dir, opts, nil, func(dir string, opts Options, _ []BatchItem) (*shard, error) {
		return createShard(dir, opts)
	})
}

// createLayout lays out a disk-backed database in dir, building each
// shard's directory from its part of items with mk. Any manifest already
// in dir is removed first and the new one, when there is more than one
// shard, is written only once every shard exists.
func createLayout(dir string, opts Options, items []BatchItem, mk func(dir string, opts Options, items []BatchItem) (*shard, error)) (*DB, error) {
	if err := os.Remove(filepath.Join(dir, shardManifestName)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return nil, fmt.Errorf("walrus: removing stale shard manifest: %w", err)
	}
	db, err := buildShards(opts, items, func(i int, opts Options, part []BatchItem) (*shard, error) {
		if opts.Shards == 1 {
			return mk(dir, opts, part)
		}
		sh, err := mk(filepath.Join(dir, shardDirName(i)), opts, part)
		if err != nil {
			return nil, fmt.Errorf("walrus: creating shard %d: %w", i, err)
		}
		return sh, nil
	})
	if err != nil || len(db.shards) == 1 {
		return db, err
	}
	if err := writeShardManifest(dir, len(db.shards)); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return db, nil
}

// createShard creates one shard's files in dir and publishes version 1.
func createShard(dir string, opts Options) (*shard, error) {
	sh, err := createShardFiles(dir, opts)
	if err != nil {
		return nil, err
	}
	sh.publishLocked()
	return sh, nil
}

// createShardFiles is createShard without the final version-1 publish, so
// CreateFrom can bulk-load before any version exists (pre-publish index
// writes need no copy-on-write capture) and publish exactly once at the
// end.
func createShardFiles(dir string, opts Options) (*shard, error) {
	sh, err := prepare(opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("walrus: creating %s: %w", dir, err)
	}
	fs := resolveFS(opts.FS)
	f, err := fs(filepath.Join(dir, indexFileName), os.O_RDWR|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return nil, fmt.Errorf("walrus: creating index file: %w", err)
	}
	pg, err := store.CreateFile(f, store.DefaultPageSize)
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	pg.SetWALBase(uint64(initialLSN))
	wf, err := fs(filepath.Join(dir, walFileName), os.O_RDWR|os.O_CREATE)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("walrus: creating WAL file: %w", err), pg.Close())
	}
	w, err := wal.Create(wf, pg.PhysicalPageSize(), initialLSN)
	if err != nil {
		return nil, errors.Join(err, pg.Close(), wf.Close())
	}
	p := &persistState{dir: dir, fs: fs, pg: pg, wal: w, policy: opts.Durability}
	closeAll := func() error {
		return errors.Join(w.Close(), pg.Close())
	}
	p.pool, err = store.NewBufferPool(pg, poolCapacity)
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	p.pool.SetFlushHook(p.flushHook)
	p.ps, err = rstar.NewPagedStore(pg, p.pool, opts.Region.Dim(), leafKind(opts))
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	tree, err := rstar.New(rstar.NewVersioned(p.ps))
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	p.heap, err = store.NewHeapFile(pg, p.pool, heapRootSlot)
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	sh.tree = tree
	sh.persist = p
	if err := sh.flush(); err != nil {
		return nil, errors.Join(err, closeAll())
	}
	return sh, nil
}

// leafKind is the leaf layout of a shard's index, in memory or on disk: a
// centroid database indexes points, so its leaves store each signature
// once; a UseBBox database indexes boxes. An existing disk index keeps the
// layout it was written with (see rstar.NewPagedStore): centroid indexes
// written before point leaves existed open with box leaves.
func leafKind(opts Options) rstar.LeafKind {
	if opts.UseBBox {
		return rstar.BoxLeaves
	}
	return rstar.PointLeaves
}

// Open reopens a disk-backed database created by Create or CreateFrom,
// running crash recovery if it was not closed cleanly (see DB.Recovery)
// and rebuilding the in-memory region cache from the heap files. A
// directory with a shards.json manifest opens as that many shards, in
// parallel — recovery time scales with the largest shard's log, not the
// sum; a directory without one opens as one shard.
func Open(dir string) (*DB, error) { return OpenFS(dir, nil) }

// OpenFS is Open with an explicit filesystem seam; nil fs uses the real
// filesystem. Crash-recovery tests pass a fault-injecting opener.
func OpenFS(dir string, fs FileOpener) (*DB, error) {
	n, err := readShardManifest(dir)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		sh, err := openShard(dir, fs)
		if err != nil {
			return nil, err
		}
		return newDB([]*shard{sh}), nil
	}
	shards := make([]*shard, n)
	err = parallel.ForErr(n, n, func(i int) error {
		sh, err := openShard(filepath.Join(dir, shardDirName(i)), fs)
		if err != nil {
			return fmt.Errorf("walrus: opening shard %d: %w", i, err)
		}
		shards[i] = sh
		return nil
	})
	if err != nil {
		return nil, errors.Join(err, closeShards(shards))
	}
	return newDB(shards), nil
}

// openShard opens the shard whose files are in dir.
func openShard(dir string, fs FileOpener) (*shard, error) {
	cf, err := os.Open(filepath.Join(dir, catalogFileName))
	if err != nil {
		return nil, fmt.Errorf("walrus: opening catalog: %w", err)
	}
	var cat catalogData
	err = gob.NewDecoder(cf).Decode(&cat)
	if cerr := cf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("walrus: decoding catalog: %w", err)
	}
	if !refsInImageOrder(cat.Refs) {
		return nil, fmt.Errorf("walrus: catalog region directory is not in image order")
	}
	sh, err := prepare(cat.Opts)
	if err != nil {
		return nil, err
	}
	sh.opts.FS = fs
	opener := resolveFS(fs)
	f, err := opener(filepath.Join(dir, indexFileName), os.O_RDWR)
	if err != nil {
		return nil, fmt.Errorf("walrus: opening index file: %w", err)
	}
	wf, err := opener(filepath.Join(dir, walFileName), os.O_RDWR|os.O_CREATE)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("walrus: opening WAL file: %w", err), f.Close())
	}

	// Replay the log below the pager. The fallbacks are only consulted
	// when the log header itself is torn, which can happen solely during
	// a log reset's header rewrite — and the base was synced into the page
	// file's meta immediately before every reset.
	fallbackSize, fallbackBase, ok := store.PeekMeta(f)
	if !ok {
		fallbackSize, fallbackBase = store.DefaultPageSize, uint64(initialLSN)
	}
	type appRec struct {
		lsn     wal.LSN
		kind    byte
		payload []byte
	}
	var apps []appRec
	w, stats, err := wal.Recover(wf, f, fallbackSize, wal.LSN(fallbackBase),
		func(lsn wal.LSN, kind byte, payload []byte) error {
			apps = append(apps, appRec{lsn, kind, append([]byte(nil), payload...)})
			return nil
		})
	if err != nil {
		return nil, errors.Join(fmt.Errorf("walrus: recovering %s: %w", dir, err), f.Close(), wf.Close())
	}
	for _, a := range apps {
		if a.kind == kindRebuild && a.lsn > stats.LastCheckpointLSN {
			return nil, errors.Join(
				fmt.Errorf("walrus: bulk rebuild of %s was interrupted by a crash; re-run CreateFrom", dir),
				w.Close(), f.Close())
		}
	}

	pg, err := store.OpenFile(f)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("walrus: %s: %w", dir, err), w.Close(), f.Close())
	}
	p := &persistState{
		dir: dir, fs: opener, pg: pg, wal: w,
		policy: cat.Opts.Durability, metaVer: pg.MetaVersion(),
		lastLSN: cat.LastLSN, recovery: stats,
	}
	closeAll := func() error {
		return errors.Join(w.Close(), pg.Close())
	}
	p.pool, err = store.NewBufferPool(pg, poolCapacity)
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	p.pool.SetFlushHook(p.flushHook)
	p.ps, err = rstar.NewPagedStore(pg, p.pool, cat.Opts.Region.Dim(), leafKind(cat.Opts))
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	tree, err := rstar.Load(rstar.NewVersioned(p.ps))
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	p.heap, err = store.OpenHeapFile(pg, p.pool, heapRootSlot)
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}

	sh.images = make([]imageRecord, len(cat.Images))
	for i, ci := range cat.Images {
		sh.images[i] = imageRecord{ID: ci.ID, W: ci.W, H: ci.H}
		if ci.NumRegions > 0 {
			sh.images[i].Regions = make([]region.Region, ci.NumRegions)
		}
		if ci.ID != "" {
			sh.byID.set(ci.ID, i)
		}
	}
	sh.refs = cat.Refs

	// Reapply committed catalog deltas past the catalog snapshot (the
	// page images carrying the same operations' index and heap changes
	// were already replayed above).
	for _, a := range apps {
		if a.kind != kindDelta || uint64(a.lsn) <= cat.LastLSN {
			continue
		}
		var d walDelta
		if err := gob.NewDecoder(bytes.NewReader(a.payload)).Decode(&d); err != nil {
			return nil, errors.Join(fmt.Errorf("walrus: decoding WAL delta: %w", err), closeAll())
		}
		if err := sh.applyDeltaLocked(&d); err != nil {
			return nil, errors.Join(err, closeAll())
		}
	}

	for _, ref := range sh.refs {
		if ref.Local < 0 {
			continue
		}
		rec, err := p.heap.Get(store.UnpackRID(ref.RID))
		if err != nil {
			return nil, errors.Join(fmt.Errorf("walrus: loading region payload: %w", err), closeAll())
		}
		var r region.Region
		if err := r.UnmarshalBinary(rec); err != nil {
			return nil, errors.Join(fmt.Errorf("walrus: decoding region payload: %w", err), closeAll())
		}
		if err := checkBitmap(cat.Opts.Region.BitmapGrid, ref.Local, r.Bitmap); err != nil {
			return nil, errors.Join(fmt.Errorf("walrus: image slot %d: %w", ref.Image, err), closeAll())
		}
		if ref.Image >= len(sh.images) || ref.Local >= len(sh.images[ref.Image].Regions) {
			return nil, errors.Join(fmt.Errorf("walrus: catalog region directory is inconsistent"), closeAll())
		}
		sh.images[ref.Image].Regions[ref.Local] = r
	}

	sh.liveRegions = countLiveRefs(sh.refs)
	sh.tree = tree
	sh.persist = p
	sh.publishLocked()
	return sh, nil
}

// countLiveRefs counts refs that are not tombstoned; constructors call
// it once so writers can keep the count incremental afterwards.
func countLiveRefs(refs []regionRef) int {
	n := 0
	for _, ref := range refs {
		if ref.Local >= 0 {
			n++
		}
	}
	return n
}

// applyDeltaLocked replays one committed catalog delta onto the in-memory
// catalog, mirroring exactly what addExtractedLocked and remove do to it.
// The Locked suffix here means "caller owns the catalog exclusively": it
// runs only during openShard's recovery, before the shard is published to
// any other goroutine.
func (sh *shard) applyDeltaLocked(d *walDelta) error {
	switch d.Op {
	case deltaAdd:
		imgIdx := len(sh.images)
		rec := imageRecord{ID: d.ID, W: d.W, H: d.H}
		if len(d.RIDs) > 0 {
			rec.Regions = make([]region.Region, len(d.RIDs))
		}
		sh.images = append(sh.images, rec)
		sh.byID.set(d.ID, imgIdx)
		for local, rid := range d.RIDs {
			sh.refs = append(sh.refs, regionRef{Image: imgIdx, Local: local, RID: rid})
		}
	case deltaRemove:
		imgIdx, ok := sh.byID.get(d.ID)
		if !ok {
			return fmt.Errorf("walrus: WAL removes unknown image %q", d.ID)
		}
		lo, hi := refRun(sh.refs, imgIdx)
		for i := lo; i < hi; i++ {
			sh.refs[i].Local = -1
		}
		sh.byID.delete(d.ID)
		sh.images[imgIdx].Regions = nil
		sh.images[imgIdx].ID = ""
	default:
		return fmt.Errorf("walrus: unknown WAL delta op %d", d.Op)
	}
	return nil
}

// logPendingLocked captures redo images of every page changed since its
// last logging, plus the pager meta page if allocation state moved, into
// the WAL. Caller holds sh.mu.
func (sh *shard) logPendingLocked() error {
	p := sh.persist
	if err := p.pool.LogDirty(func(id store.PageID, data []byte) (uint64, error) {
		return uint64(p.wal.AppendPage(uint32(id), data)), nil
	}); err != nil {
		return err
	}
	if v := p.pg.MetaVersion(); v != p.metaVer {
		lsn := p.wal.AppendPage(0, p.pg.MetaImage())
		p.pg.SetMetaLSN(uint64(lsn))
		p.metaVer = v
	}
	return nil
}

// commitLocked ends one mutating operation: it logs redo images of every
// page the operation touched, the catalog delta, and a commit marker,
// then applies the durability policy and (occasionally) checkpoints.
// Together with the buffer pool's no-steal policy this makes the
// operation atomic across crashes: recovery either replays it fully or
// discards it wholesale. Caller holds sh.mu.
func (sh *shard) commitLocked(delta *walDelta) error {
	p := sh.persist
	if p == nil || p.unlogged {
		return nil
	}
	if err := sh.logPendingLocked(); err != nil {
		return err
	}
	if delta != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(delta); err != nil {
			return fmt.Errorf("walrus: encoding WAL delta: %w", err)
		}
		p.wal.AppendApp(kindDelta, buf.Bytes())
	}
	p.wal.AppendCommit()
	var err error
	switch p.policy {
	case DurabilityAlways:
		err = p.wal.Sync()
	case DurabilityNone:
		err = p.wal.Flush()
	default: // DurabilityGroupCommit
		err = p.wal.MaybeSync(groupCommitBytes)
	}
	if err != nil {
		return err
	}
	if p.pool.DirtyCount() >= poolCapacity*3/4 || p.wal.Size() >= walSoftLimit {
		return sh.checkpointLocked(false)
	}
	return nil
}

// checkpointLocked flushes all dirty state to the page file, snapshots
// the catalog, and resets the log. The ordering makes every crash
// window recoverable:
//
//  1. log still-unlogged dirty pages (logPending; they become committed
//     by the checkpoint record in step 5),
//  2. force the log durable, so the write-backs of step 4 never overtake
//     it (log-before-flush),
//  3. persist the next log generation's base LSN in the page file's
//     meta, so recovery can rebuild the log header if step 7 is torn,
//  4. write back every dirty page and sync the page file,
//  5. append + sync the checkpoint record — recovery now starts here,
//  6. atomically replace the catalog, stamped with the checkpoint LSN,
//  7. reset the log: rewrite its header in place with the new base,
//     starting the next generation over the old one's blocks.
//
// A crash before step 5 recovers from the old log generation; between 5
// and 6, from the checkpoint with delta replay; after 6 the catalog is
// current and replay finds nothing to do. Caller holds sh.mu.
func (sh *shard) checkpointLocked(logPending bool) error {
	p := sh.persist
	if logPending {
		if err := sh.logPendingLocked(); err != nil {
			return err
		}
	}
	if err := p.wal.Sync(); err != nil {
		return err
	}
	newBase := p.wal.NextBase()
	p.pg.SetWALBase(uint64(newBase))
	if err := p.pool.FlushAll(); err != nil {
		return err
	}
	ckLSN, err := p.wal.Checkpoint()
	if err != nil {
		return err
	}
	if err := sh.writeCatalogLocked(uint64(ckLSN)); err != nil {
		return err
	}
	if err := p.wal.Reset(newBase); err != nil {
		return err
	}
	p.metaVer = p.pg.MetaVersion()
	if m := sh.om.Load(); m != nil {
		m.checkpoints.Inc()
	}
	return nil
}

// writeCatalogLocked atomically replaces the catalog file (see
// replaceFile). Caller holds sh.mu.
func (sh *shard) writeCatalogLocked(lastLSN uint64) error {
	p := sh.persist
	cat := catalogData{Opts: sh.opts, Refs: sh.refs, LastLSN: lastLSN}
	cat.Images = make([]catalogImage, len(sh.images))
	for i, rec := range sh.images {
		cat.Images[i] = catalogImage{ID: rec.ID, W: rec.W, H: rec.H, NumRegions: len(rec.Regions)}
	}
	err := replaceFile(p.fs, p.dir, catalogFileName, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(&cat)
	})
	if err != nil {
		return fmt.Errorf("walrus: writing catalog: %w", err)
	}
	p.lastLSN = lastLSN
	return nil
}

// replaceFile atomically replaces dir/name with what write produces:
// write to a temp file, fsync it, rename it over name, fsync the
// directory. A crash leaves either the old file or the new one.
func replaceFile(fs FileOpener, dir, name string, write func(io.Writer) error) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fs(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	if err := write(&fileWriter{f: f}); err != nil {
		err = errors.Join(err, f.Close())
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		err = errors.Join(err, f.Close())
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// shardManifestName is the file marking a directory as a multi-shard
// database and recording its shard count. A directory without one is a
// one-shard database whose files sit in the directory itself.
const shardManifestName = "shards.json"

type shardManifest struct {
	Shards int `json:"shards"`
}

// shardDirName is the subdirectory holding shard i's files.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// writeShardManifest durably records the shard count of dir (see
// replaceFile).
func writeShardManifest(dir string, n int) error {
	data, err := json.MarshalIndent(shardManifest{Shards: n}, "", "  ")
	if err != nil {
		return fmt.Errorf("walrus: encoding shard manifest: %w", err)
	}
	err = replaceFile(resolveFS(nil), dir, shardManifestName, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		return fmt.Errorf("walrus: writing shard manifest: %w", err)
	}
	return nil
}

// readShardManifest returns the shard count dir's manifest records, or 0
// when dir has none.
func readShardManifest(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, shardManifestName))
	if errors.Is(err, iofs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("walrus: reading shard manifest: %w", err)
	}
	var m shardManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("walrus: decoding shard manifest: %w", err)
	}
	if m.Shards < 1 {
		return 0, fmt.Errorf("walrus: shard manifest declares %d shards", m.Shards)
	}
	return m.Shards, nil
}

// fileWriter adapts a store.File to io.Writer for the catalog encoder.
type fileWriter struct {
	f   store.File
	off int64
}

func (w *fileWriter) Write(b []byte) (int, error) {
	n, err := w.f.WriteAt(b, w.off)
	w.off += int64(n)
	return n, err
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Errors are ignored: some filesystems reject directory fsync,
// and the rename itself already ordered correctly on those that matter.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	//walrus:lint-ignore errsink directory fsync is best-effort: some filesystems reject it outright
	_ = d.Sync()
	//walrus:lint-ignore errsink closing a read-only directory handle cannot lose data
	_ = d.Close()
}

// flush checkpoints a disk-backed shard: all dirty pages reach the page
// file, the catalog is rewritten, and the write-ahead log is reset.
// It is a no-op for in-memory shards. flush takes the write lock:
// concurrent flushes would race on the catalog temp file.
func (sh *shard) flush() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.flushLocked()
}

func (sh *shard) flushLocked() error {
	p := sh.persist
	if p == nil {
		return nil
	}
	if p.unlogged {
		// Bulk rebuild: write everything directly; endBulkLoad will
		// checkpoint when the rebuild is complete.
		if err := p.pool.FlushAll(); err != nil {
			return err
		}
		return sh.writeCatalogLocked(p.lastLSN)
	}
	return sh.checkpointLocked(true)
}

// close flushes and releases a disk-backed shard and marks any shard
// closed, so later writes fail with ErrClosed.
func (sh *shard) close() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.closed = true
	if sh.persist == nil {
		return nil
	}
	p := sh.persist
	err := sh.flushLocked()
	if werr := p.wal.Close(); err == nil {
		err = werr
	}
	if perr := p.pg.Close(); err == nil {
		err = perr
	}
	sh.persist = nil
	return err
}
