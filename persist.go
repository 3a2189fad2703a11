package walrus

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"slices"

	"walrus/internal/parallel"
	"walrus/internal/region"
	"walrus/internal/rstar"
	"walrus/internal/store"
	"walrus/internal/wal"
)

// File names inside a disk-backed database directory.
const (
	indexFileName = "index.db"
	walFileName   = "wal.log"
	// legacyCatalogName is the catalog file that databases written before
	// the catalog moved into the page file keep beside it. Its presence is
	// how Open recognises such a directory (ErrLegacyFormat).
	legacyCatalogName = "catalog.gob"
)

// ErrLegacyFormat is returned by Open for a directory written by earlier
// code, which kept image metadata in a catalog.gob file beside the page
// file. Open refuses it before touching any of its files; re-create the
// database from its images (Create removes the stale catalog file).
var ErrLegacyFormat = errors.New("walrus: database has a catalog.gob, a format this version does not read")

// ErrRecordTooLarge is returned by Add, AddBatch and CreateFrom on a
// disk-backed database for an image whose catalog record — its id plus
// one heap record id per region — does not fit one page. The image is
// refused before anything is written.
var ErrRecordTooLarge = errors.New("image record does not fit a page")

// heapRootSlot is the pager root slot holding the heap's first page; slot
// 4 holds its last (slots 0-2 belong to the paged R*-tree).
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

// kindRebuild is the WAL app-record kind (opaque to the wal package)
// marking the start of an unlogged bulk rebuild (CreateFrom). Seeing one
// after the last checkpoint during recovery means the rebuild was
// interrupted and the database is unusable.
const kindRebuild = 2

// persistState holds the disk machinery of a disk-backed shard. The page
// file carries the R*-tree nodes and a slotted-page heap holding the rest
// of the shard: the options, written once by Create; one image record
// per image slot (see imageEntry); and every region's serialized payload
// (signature, bounding box, bitmap) — the paper stores these "in the
// index along with the signature of each region" (Section 5.4). The
// write-ahead log makes every operation since the last checkpoint atomic
// and (policy permitting) durable.
type persistState struct {
	pg   *store.Pager
	pool *store.BufferPool
	ps   *rstar.PagedStore
	heap *store.HeapFile
	wal  *wal.Log
	// recs holds the heap record id of each image slot's record, by slot.
	recs []store.RID

	policy   DurabilityPolicy
	metaVer  uint64 // pager meta version captured by the last logged meta image
	recovery RecoveryStats
	unlogged bool // bulk rebuild in progress: suspend logging
}

// flushHook enforces the log-before-flush invariant: the buffer pool
// consults it before any dirty page write-back.
func (p *persistState) flushHook(id store.PageID, lsn uint64) error {
	return p.wal.EnsureDurable(wal.LSN(lsn), p.policy != DurabilityNone)
}

// Heap record tags. Region payloads start with region's marshal version
// (1); the shard's other heap records start with one of these.
const (
	tagOptions   = 0xF0 // gob-encoded Options, written once by Create
	tagImage     = 0xF1 // an image record
	tagTombstone = 0xF2 // the record of a removed image
)

// Image record layout (little-endian):
//
//	tag (1) | slot (8) | first payload (8) | region count (4)
//	W (4) | H (4) | id length (2) | id | region RIDs (8 each, packed)
//
// A tombstone is the first line alone, under tagTombstone: Remove shrinks
// the record to it in place, so the slot and its payload range keep
// their numbers across a reopen.
const (
	tombstoneSize   = 1 + 8 + 8 + 4
	imageHeaderSize = tombstoneSize + 4 + 4 + 2
)

// imageEntry is an image or tombstone record in decoded form: image slot
// slot owns payloads [first, first+count).
type imageEntry struct {
	slot, first uint64
	count       int
	live        bool // an image record, not a tombstone
	id          string
	w, h        int
	rids        []uint64  // the regions' packed heap record ids, in local order
	rid         store.RID // where the record lives (set by the heap scan)
}

// imageRecordSize is the size of the record of image id with n regions.
func imageRecordSize(id string, n int) int { return imageHeaderSize + len(id) + 8*n }

// encode returns e's record.
func (e *imageEntry) encode() []byte {
	le := binary.LittleEndian
	tag, size := byte(tagTombstone), tombstoneSize
	if e.live {
		tag, size = tagImage, imageRecordSize(e.id, e.count)
	}
	b := append(make([]byte, 0, size), tag)
	b = le.AppendUint64(b, e.slot)
	b = le.AppendUint64(b, e.first)
	b = le.AppendUint32(b, uint32(e.count))
	if !e.live {
		return b
	}
	b = le.AppendUint32(b, uint32(e.w))
	b = le.AppendUint32(b, uint32(e.h))
	b = le.AppendUint16(b, uint16(len(e.id)))
	b = append(b, e.id...)
	for _, rid := range e.rids {
		b = le.AppendUint64(b, rid)
	}
	return b
}

// decodeImageEntry decodes an image or tombstone record, refusing one
// whose length does not match what it declares.
func decodeImageEntry(b []byte) (imageEntry, error) {
	e, _, err := appendImageEntry(nil, b)
	return e, err
}

// appendImageEntry is decodeImageEntry decoding the region RIDs onto the
// end of rids, which the entry's rids then alias: a heap scan decodes
// every image record into one buffer.
func appendImageEntry(rids []uint64, b []byte) (imageEntry, []uint64, error) {
	if len(b) < tombstoneSize || (b[0] != tagImage && b[0] != tagTombstone) {
		return imageEntry{}, rids, fmt.Errorf("walrus: malformed image record of %d bytes", len(b))
	}
	le := binary.LittleEndian
	e := imageEntry{slot: le.Uint64(b[1:]), first: le.Uint64(b[9:]), count: int(le.Uint32(b[17:])), live: b[0] == tagImage}
	want := int64(tombstoneSize)
	if e.live {
		want = imageHeaderSize
		if len(b) >= imageHeaderSize {
			want += int64(le.Uint16(b[29:])) + 8*int64(e.count)
		}
	}
	if int64(len(b)) != want {
		return imageEntry{}, rids, fmt.Errorf("walrus: image record of %d bytes, want %d", len(b), want)
	}
	if !e.live {
		return e, rids, nil
	}
	e.w, e.h = int(le.Uint32(b[21:])), int(le.Uint32(b[25:]))
	ridsAt := imageHeaderSize + int(le.Uint16(b[29:]))
	e.id = string(b[imageHeaderSize:ridsAt])
	n := len(rids)
	for off := ridsAt; off < len(b); off += 8 {
		rids = append(rids, le.Uint64(b[off:]))
	}
	e.rids = rids[n:len(rids):len(rids)]
	return e, rids, nil
}

// Create creates an empty disk-backed database in dir: CreateFrom with no
// items.
func Create(dir string, opts Options) (*DB, error) { return CreateFrom(dir, opts, nil, 0) }

// CreateFrom builds a disk-backed database over a whole collection in one
// pass: region extraction runs on up to workers goroutines, region
// payloads stream into the heap file, and the paged R*-tree is bulk-loaded
// by variance-split packing (see BuildFrom), one full page per node but
// the last two of each level. This is the fastest way to run the paper's
// one-time indexing phase against a directory-resident database.
//
// The database gets opts.Shards shards (0 means 1) and dir is created if
// needed. One shard lives in dir itself; more shards each get a
// self-contained shard-NNNN subdirectory — its own page file and WAL,
// each one unlogged bulk load — and a shards.json manifest recording the
// count. Any manifest already in dir is removed first and the new one is
// written last, so a create that fails part-way leaves no manifest naming
// shards that do not exist.
func CreateFrom(dir string, opts Options, items []BatchItem, workers int) (*DB, error) {
	if err := os.Remove(filepath.Join(dir, shardManifestName)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return nil, fmt.Errorf("walrus: removing stale shard manifest: %w", err)
	}
	db, err := buildShards(opts, items, func(i int, opts Options, part []BatchItem) (*shard, error) {
		if opts.Shards == 1 {
			return createShardFrom(dir, opts, part, workers)
		}
		sh, err := createShardFrom(filepath.Join(dir, shardDirName(i)), opts, part, workers)
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

// createShardFrom creates one shard's files in dir and bulk-loads items
// into it. It enters the options as the heap's first record, once: they
// are never rewritten, so Open restores what Create was given. It logs
// its rebuild marker before any page but the page file's header reaches
// disk, bulk-loads onto a store no tree has allocated pages from and
// before any version exists (pre-publish index writes need no
// copy-on-write capture), and publishes exactly once, version 1, at the
// end.
func createShardFrom(dir string, opts Options, items []BatchItem, workers int) (*shard, error) {
	sh, err := prepare(opts)
	if err != nil {
		return nil, err
	}
	var optsRec bytes.Buffer
	optsRec.WriteByte(tagOptions)
	if err := gob.NewEncoder(&optsRec).Encode(&opts); err != nil {
		return nil, fmt.Errorf("walrus: encoding options: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("walrus: creating %s: %w", dir, err)
	}
	// A database created over one in the legacy format must not be
	// refused as legacy by the next Open.
	if err := os.Remove(filepath.Join(dir, legacyCatalogName)); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return nil, fmt.Errorf("walrus: removing stale catalog: %w", err)
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
	p := &persistState{pg: pg, wal: w, policy: opts.Durability}
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
	p.heap, err = store.NewHeapFile(pg, p.pool, heapRootSlot)
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	if _, err := p.heap.Insert(optsRec.Bytes()); err != nil {
		return nil, errors.Join(fmt.Errorf("walrus: storing options: %w", err), closeAll())
	}
	sh.persist = p

	if err := sh.beginBulkLoad(); err != nil {
		return nil, errors.Join(err, sh.close())
	}
	rects, payloads, err := sh.catalogBulkLocked(items, workers)
	if err != nil {
		return nil, errors.Join(err, sh.close())
	}
	// The database has published no version yet, so the load retains no
	// pre-images, and the publish below produces version 1.
	tree, err := rstar.BulkLoad(rstar.NewVersioned(p.ps), rects, payloads)
	if err != nil {
		return nil, errors.Join(err, sh.close())
	}
	sh.tree = tree
	sh.liveRegions = len(sh.refs)
	if err := sh.endBulkLoad(); err != nil {
		return nil, errors.Join(err, sh.close())
	}
	sh.publishLocked()
	return sh, nil
}

// leafKind is the leaf layout of a shard's index, in memory or on disk: a
// centroid database indexes points, so its leaves store each signature
// once; a UseBBox database indexes boxes.
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

// openShard opens the shard whose files are in dir: WAL replay brings
// the page file to its last committed state, and one heap scan then
// rebuilds the catalog (see scanHeap).
func openShard(dir string, fs FileOpener) (*shard, error) {
	if _, err := os.Stat(filepath.Join(dir, legacyCatalogName)); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrLegacyFormat, dir)
	} else if !errors.Is(err, iofs.ErrNotExist) {
		return nil, fmt.Errorf("walrus: checking for a legacy catalog: %w", err)
	}
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
	var rebuildLSN wal.LSN
	w, stats, err := wal.Recover(wf, f, fallbackSize, wal.LSN(fallbackBase),
		func(lsn wal.LSN, kind byte, _ []byte) error {
			if kind == kindRebuild {
				rebuildLSN = lsn
			}
			return nil
		})
	if err != nil {
		return nil, errors.Join(fmt.Errorf("walrus: recovering %s: %w", dir, err), f.Close(), wf.Close())
	}
	if rebuildLSN > stats.LastCheckpointLSN {
		return nil, errors.Join(
			fmt.Errorf("walrus: bulk rebuild of %s was interrupted by a crash; re-run CreateFrom", dir),
			w.Close(), f.Close())
	}

	pg, err := store.OpenFile(f)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("walrus: %s: %w", dir, err), w.Close(), f.Close())
	}
	p := &persistState{pg: pg, wal: w, metaVer: pg.MetaVersion(), recovery: stats}
	closeAll := func() error {
		return errors.Join(w.Close(), pg.Close())
	}
	p.pool, err = store.NewBufferPool(pg, poolCapacity)
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	p.pool.SetFlushHook(p.flushHook)
	p.heap, err = store.OpenHeapFile(pg, p.pool, heapRootSlot)
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	sc, err := scanHeap(p.heap)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("walrus: %s: %w", dir, err), closeAll())
	}
	sh, err := prepare(*sc.opts)
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	sh.opts.FS = fs
	p.policy = sh.opts.Durability
	p.ps, err = rstar.NewPagedStore(pg, p.pool, sh.opts.Region.Dim(), leafKind(sh.opts))
	if err != nil {
		return nil, errors.Join(err, closeAll())
	}
	if sh.tree, err = rstar.Load(rstar.NewVersioned(p.ps)); err != nil {
		return nil, errors.Join(err, closeAll())
	}
	sh.persist = p
	if err := sh.loadCatalogLocked(sc); err != nil {
		return nil, errors.Join(fmt.Errorf("walrus: %s: %w", dir, err), closeAll())
	}
	sh.publishLocked()
	return sh, nil
}

// heapScan is what one scan of a shard's heap finds. Region records are
// kept as their bytes, in scan order, until the image records have said
// which payload each one is: the load then decodes each straight into its
// payload's slots of the region columns.
type heapScan struct {
	opts    *Options
	entries []imageEntry
	// rids is the buffer the entries' rids alias.
	rids []uint64
	// regions holds one entry per region record, sorted by RID once the
	// scan ends. The records' bytes are copied into the chunks of stash,
	// each stashChunk bytes, so that stashing never copies what the stash
	// already holds.
	regions []stashedRegion
	stash   [][]byte
}

// stashChunk is the size of one chunk of a heap scan's region stash.
const stashChunk = 1 << 20

// stashedRegion is a region record a heap scan found: its packed RID and
// where its bytes sit in the scan's stash.
type stashedRegion struct {
	rid    uint64
	chunk  int32
	lo, hi int32
	named  bool // an image record has claimed it
}

// scanHeap reads every record of a shard's heap: exactly one options
// record, image and tombstone records, and region records. Any record
// that fails to decode fails the scan.
func scanHeap(h *store.HeapFile) (*heapScan, error) {
	sc := &heapScan{}
	var recErr error
	err := h.Scan(func(rid store.RID, rec []byte) bool {
		recErr = sc.add(rid, rec)
		return recErr == nil
	})
	if err = cmp.Or(err, recErr); err == nil && sc.opts == nil {
		err = errors.New("walrus: the heap holds no options record")
	}
	slices.SortFunc(sc.regions, func(a, b stashedRegion) int { return cmp.Compare(a.rid, b.rid) })
	return sc, err
}

// add decodes the heap record rec at rid into sc.
func (sc *heapScan) add(rid store.RID, rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("walrus: empty heap record at %v", rid)
	}
	switch rec[0] {
	case tagOptions:
		if sc.opts != nil {
			return fmt.Errorf("walrus: a second options record at %v", rid)
		}
		sc.opts = new(Options)
		if err := gob.NewDecoder(bytes.NewReader(rec[1:])).Decode(sc.opts); err != nil {
			return fmt.Errorf("walrus: decoding the options record: %w", err)
		}
	case tagImage, tagTombstone:
		e, rids, err := appendImageEntry(sc.rids, rec)
		if err != nil {
			return fmt.Errorf("%w at %v", err, rid)
		}
		e.rid = rid
		sc.entries, sc.rids = append(sc.entries, e), rids
	default:
		if _, err := region.ParseShape(rec); err != nil {
			return fmt.Errorf("walrus: decoding region record %v: %w", rid, err)
		}
		if n := len(sc.stash); n == 0 || cap(sc.stash[n-1])-len(sc.stash[n-1]) < len(rec) {
			sc.stash = append(sc.stash, make([]byte, 0, max(stashChunk, len(rec))))
		}
		c := &sc.stash[len(sc.stash)-1]
		lo := len(*c)
		*c = append(*c, rec...)
		sc.regions = append(sc.regions, stashedRegion{rid: rid.Pack(), chunk: int32(len(sc.stash) - 1), lo: int32(lo), hi: int32(len(*c))})
	}
	return nil
}

// claim returns the bytes of the region record at the packed RID rid and
// marks it named, or false when the heap holds no such record or an image
// record has already claimed it.
func (sc *heapScan) claim(rid uint64) ([]byte, bool) {
	i, ok := slices.BinarySearchFunc(sc.regions, rid, func(r stashedRegion, rid uint64) int { return cmp.Compare(r.rid, rid) })
	if !ok || sc.regions[i].named {
		return nil, false
	}
	r := &sc.regions[i]
	r.named = true
	return sc.stash[r.chunk][r.lo:r.hi], true
}

// loadCatalogLocked installs a heap scan's catalog in a disk shard that
// has published nothing yet. The image records must tile the image slots
// and the payload numbers [0, n) in order, and name every region record
// exactly once; each region passes the grid check (see checkGrid) and has
// the options' dimensionalities. Each region record is decoded straight
// into its payload's column slots; a tombstoned payload's slots stay
// zero.
func (sh *shard) loadCatalogLocked(sc *heapScan) error {
	p := sh.persist
	slices.SortFunc(sc.entries, func(a, b imageEntry) int { return cmp.Compare(a.slot, b.slot) })
	payloads := 0
	for i := range sc.entries {
		e := &sc.entries[i]
		if e.slot != uint64(i) || e.first != uint64(payloads) || imageRecordSize("", e.count) > p.heap.MaxRecord() {
			return fmt.Errorf("walrus: image record %v (slot %d, payloads %d+%d) does not follow slot %d, payload %d",
				e.rid, e.slot, e.first, e.count, i, payloads)
		}
		payloads += e.count
	}
	cols := sh.cols.zeroed(payloads)
	sh.images = make([]imageRecord, len(sc.entries))
	p.recs = make([]store.RID, len(sc.entries))
	sh.refs = make([]regionRef, 0, payloads)
	for i := range sc.entries {
		e := &sc.entries[i]
		p.recs[i] = e.rid
		if !e.live {
			for range e.count {
				sh.refs = append(sh.refs, regionRef{Image: i, Local: -1})
			}
			continue
		}
		n := sh.byID.len()
		if sh.byID.set(e.id, i); sh.byID.len() == n {
			return fmt.Errorf("walrus: image %q has two records", e.id)
		}
		first := len(sh.refs)
		for local, rid := range e.rids {
			rec, ok := sc.claim(rid)
			if !ok {
				return fmt.Errorf("walrus: image %q names region record %v, which is not in the heap", e.id, store.UnpackRID(rid))
			}
			if err := cols.decodeAt(local, first+local, rec); err != nil {
				return fmt.Errorf("walrus: image slot %d: %w", i, err)
			}
			sh.refs = append(sh.refs, regionRef{Image: i, Local: local, RID: rid})
		}
		sh.images[i] = imageRecord{ID: e.id, W: e.w, H: e.h, First: first, Count: e.count}
		sh.liveRegions += e.count
	}
	if unnamed := len(sc.regions) - sh.liveRegions; unnamed > 0 {
		return fmt.Errorf("walrus: the heap holds %d region records no image names", unnamed)
	}
	sh.cols = cols
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
// page the operation touched — the index nodes, and the heap pages with
// its region and image records — and a commit marker, then applies the
// durability policy and (occasionally) checkpoints. Together with the
// buffer pool's no-steal policy this makes the operation atomic across
// crashes: recovery either replays it fully or discards it wholesale.
// Caller holds sh.mu.
func (sh *shard) commitLocked() error {
	p := sh.persist
	if p == nil || p.unlogged {
		return nil
	}
	if err := sh.logPendingLocked(); err != nil {
		return err
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

// checkpointLocked flushes all dirty state to the page file and resets
// the log. The ordering makes every crash window recoverable:
//
//  1. log still-unlogged dirty pages (logPending; they become committed
//     by the checkpoint record in step 5),
//  2. force the log durable, so the write-backs of step 4 never overtake
//     it (log-before-flush),
//  3. persist the next log generation's base LSN in the page file's
//     meta, so recovery can rebuild the log header if step 6 is torn,
//  4. write back every dirty page and sync the page file,
//  5. append + sync the checkpoint record — recovery now starts here,
//  6. reset the log: rewrite its header in place with the new base,
//     starting the next generation over the old one's blocks.
//
// A crash before step 5 recovers by replaying the old log generation;
// after it, the page file is current and replay finds nothing to do. The
// catalog lives in the page file, so a checkpoint writes only the pages
// dirtied since the last one, whatever the catalog's size. Caller holds
// sh.mu.
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
	if err := p.wal.Checkpoint(); err != nil {
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

// shardManifestName is the file marking a directory as a multi-shard
// database and recording its shard count. A directory without one is a
// one-shard database whose files sit in the directory itself.
const shardManifestName = "shards.json"

type shardManifest struct {
	Shards int `json:"shards"`
}

// shardDirName is the subdirectory holding shard i's files.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// writeShardManifest durably records the shard count of dir, atomically:
// write a temp file, fsync it, rename it over the manifest, fsync the
// directory. A crash leaves either the old manifest or the new one.
func writeShardManifest(dir string, n int) error {
	data, err := json.MarshalIndent(shardManifest{Shards: n}, "", "  ")
	if err != nil {
		return fmt.Errorf("walrus: encoding shard manifest: %w", err)
	}
	tmp := filepath.Join(dir, shardManifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("walrus: writing shard manifest: %w", err)
	}
	_, err = f.Write(append(data, '\n'))
	if err == nil {
		err = f.Sync()
	}
	if err = errors.Join(err, f.Close()); err == nil {
		err = os.Rename(tmp, filepath.Join(dir, shardManifestName))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("walrus: writing shard manifest: %w", err)
	}
	syncDir(dir)
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
// file and the write-ahead log is reset. It is a no-op for in-memory
// shards. flush takes the write lock, as every checkpoint step mutates
// the shard's disk state.
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
		return p.pool.FlushAll()
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
