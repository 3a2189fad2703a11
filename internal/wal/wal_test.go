package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"walrus/internal/store"
)

const testPageSize = 256

func openFile(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newTestLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	f := openFile(t, path)
	l, err := Create(f, testPageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

func pageImage(fill byte) []byte {
	buf := make([]byte, testPageSize-store.PageFooterSize)
	for i := range buf {
		buf[i] = fill
	}
	return buf
}

// recoverFrom replays the log at path against dbPath (creating an empty
// page file region if needed) and returns the stats.
func recoverFrom(t *testing.T, path, dbPath string, onApp AppFunc) (*Log, RecoveryStats) {
	t.Helper()
	lf := openFile(t, path)
	df := openFile(t, dbPath)
	l, stats, err := Recover(lf, df, testPageSize, 1, onApp)
	if err != nil {
		t.Fatal(err)
	}
	df.Close()
	return l, stats
}

func TestLogAppendAndRecoverPages(t *testing.T) {
	l, path := newTestLog(t)
	dbPath := filepath.Join(filepath.Dir(path), "pages.db")

	lsn1 := l.AppendPage(1, pageImage(0xAA))
	lsn2 := l.AppendPage(2, pageImage(0xBB))
	if lsn2 <= lsn1 {
		t.Fatalf("LSNs not increasing: %d then %d", lsn1, lsn2)
	}
	l.AppendCommit()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() < lsn2 {
		t.Fatalf("DurableLSN %d below last record %d", l.DurableLSN(), lsn2)
	}
	l.Close()

	// Size the page file for three pages so replay can read-modify-write.
	df := openFile(t, dbPath)
	if err := df.Truncate(3 * testPageSize); err != nil {
		t.Fatal(err)
	}
	df.Close()

	l2, stats := recoverFrom(t, path, dbPath, nil)
	defer l2.Close()
	if !stats.Replayed {
		t.Fatal("Replayed = false for a log with records")
	}
	if stats.PagesApplied != 2 || stats.Commits != 1 || stats.TornBytes != 0 {
		t.Fatalf("stats = %+v", stats)
	}

	// The page file now carries both images with valid footers.
	df = openFile(t, dbPath)
	defer df.Close()
	page := make([]byte, testPageSize)
	for id, fill := range map[int64]byte{1: 0xAA, 2: 0xBB} {
		if _, err := df.ReadAt(page, id*testPageSize); err != nil {
			t.Fatal(err)
		}
		lsn, ok := store.CheckPageFooter(page)
		if !ok {
			t.Fatalf("page %d footer invalid after replay", id)
		}
		if lsn == 0 {
			t.Fatalf("page %d LSN not stamped", id)
		}
		if page[0] != fill || page[testPageSize-store.PageFooterSize-1] != fill {
			t.Fatalf("page %d contents wrong", id)
		}
	}
}

func TestLogUncommittedTailDiscarded(t *testing.T) {
	l, path := newTestLog(t)
	dbPath := filepath.Join(filepath.Dir(path), "pages.db")
	df := openFile(t, dbPath)
	df.Truncate(3 * testPageSize)
	df.Close()

	l.AppendPage(1, pageImage(0x11))
	l.AppendCommit()
	l.AppendPage(2, pageImage(0x22)) // no commit: must be dropped
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, stats := recoverFrom(t, path, dbPath, nil)
	defer l2.Close()
	if stats.PagesApplied != 1 {
		t.Fatalf("PagesApplied = %d, want 1 (uncommitted page replayed?)", stats.PagesApplied)
	}
	if stats.TornBytes == 0 {
		t.Fatal("TornBytes = 0, expected the uncommitted record's bytes")
	}
	page := make([]byte, testPageSize)
	df = openFile(t, dbPath)
	defer df.Close()
	if _, err := df.ReadAt(page, 2*testPageSize); err != nil {
		t.Fatal(err)
	}
	if page[0] == 0x22 {
		t.Fatal("uncommitted page image reached the page file")
	}
}

func TestLogAppRecordsDeliveredInOrder(t *testing.T) {
	l, path := newTestLog(t)
	dbPath := filepath.Join(filepath.Dir(path), "pages.db")

	l.AppendApp(7, []byte("first"))
	l.AppendCommit()
	l.AppendApp(9, []byte("second"))
	l.AppendCommit()
	l.AppendApp(9, []byte("dropped")) // uncommitted
	l.Sync()
	l.Close()

	var got []string
	var lsns []LSN
	l2, stats := recoverFrom(t, path, dbPath, func(lsn LSN, kind byte, payload []byte) error {
		got = append(got, string(payload))
		lsns = append(lsns, lsn)
		return nil
	})
	defer l2.Close()
	if stats.AppRecords != 2 || len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("app records = %v (stats %+v)", got, stats)
	}
	if lsns[0] >= lsns[1] {
		t.Fatalf("app record LSNs not increasing: %v", lsns)
	}
}

// TestLogTornTailEveryOffset chops the written log at every byte offset
// and verifies recovery always succeeds, never replays uncommitted state,
// reports the discarded bytes, and positions the log at the committed
// end. Each cut is recovered twice: as a file that ends at the cut (the
// data write extended the file but its zero extension never ran), and
// as the preallocated file, its bytes past the cut zero (a crash while
// writing into the extension).
func TestLogTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	f := openFile(t, path)
	l, err := Create(f, testPageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is the file offset where record i ends.
	var ends []int64
	for _, app := range []func(){
		func() { l.AppendPage(1, pageImage(0x33)) },
		func() { l.AppendApp(1, []byte("delta-one")) },
		func() { l.AppendCommit() },
		func() { l.AppendPage(2, pageImage(0x44)) },
		func() { l.AppendCommit() },
	} {
		app()
		ends = append(ends, headerSize+l.Size())
	}
	firstEnd := ends[2]
	l.Sync()
	written := int(ends[len(ends)-1])
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != extendChunk || written > len(full) {
		t.Fatalf("log file is %d bytes with %d written, want one %d-byte chunk", len(full), written, extendChunk)
	}
	if !bytes.Equal(full[written:], make([]byte, len(full)-written)) {
		t.Fatal("the extension past the written log is not zero")
	}

	sub := t.TempDir()
	cutLog := filepath.Join(sub, "wal.log")
	cutDB := filepath.Join(sub, "pages.db")
	image := make([]byte, len(full))
	for cut := 0; cut <= written; cut++ {
		for _, padded := range []bool{false, true} {
			file := full[:cut]
			if padded {
				copy(image, full[:cut])
				clear(image[cut:])
				file = image
			}
			if err := os.WriteFile(cutLog, file, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cutDB, make([]byte, 3*testPageSize), 0o644); err != nil {
				t.Fatal(err)
			}
			lf := openFile(t, cutLog)
			df := openFile(t, cutDB)
			apps := 0
			l2, stats, err := Recover(lf, df, testPageSize, 1, func(LSN, byte, []byte) error {
				apps++
				return nil
			})
			df.Close()
			if err != nil {
				t.Fatalf("cut %d padded=%v: Recover failed: %v", cut, padded, err)
			}
			// The committed prefix is the longest transaction boundary
			// whose bytes the file holds intact (in the preallocated file
			// the zeros past the cut can complete a record whose last
			// bytes are zero): nothing, the first transaction, or both.
			intact := func(end int) bool { return len(file) >= end && bytes.Equal(file[:end], full[:end]) }
			committed := int64(headerSize)
			wantPages, wantApps := 0, 0
			switch {
			case intact(written):
				committed, wantPages, wantApps = int64(written), 2, 1
			case intact(int(firstEnd)):
				committed, wantPages, wantApps = firstEnd, 1, 1
			}
			if stats.PagesApplied != wantPages || apps != wantApps {
				t.Fatalf("cut %d padded=%v: recovery state %+v apps=%d, want %d pages and %d app records",
					cut, padded, stats, apps, wantPages, wantApps)
			}
			// A file that ends at the cut reports every byte past the
			// committed end discarded. In the preallocated file the record
			// the cut falls in counts whole once its header is written
			// (the zeros after the cut are its claimed bytes), and not at
			// all while its LSN field is still zero; the complete
			// records before it always count.
			if cut >= headerSize {
				lo, hi := max(int64(cut)-committed, 0), max(int64(cut)-committed, 0)
				if padded && int64(cut) > committed {
					start := int64(headerSize)
					for _, e := range ends {
						if e > int64(cut) {
							lo, hi = start-committed, e-committed
							if int64(cut) >= start+RecordOverhead {
								lo = hi
							}
							break
						}
						start = e
					}
				}
				if stats.TornBytes < lo || stats.TornBytes > hi {
					t.Fatalf("cut %d padded=%v: TornBytes = %d, want [%d, %d]", cut, padded, stats.TornBytes, lo, hi)
				}
			}
			// Appending after recovery must work: the log is positioned
			// at the committed end.
			if cut >= headerSize && l2.EndLSN() != 1+LSN(committed-headerSize) {
				t.Fatalf("cut %d padded=%v: EndLSN %d, want %d", cut, padded, l2.EndLSN(), 1+committed-headerSize)
			}
			l2.AppendCommit()
			if err := l2.Sync(); err != nil {
				t.Fatalf("cut %d padded=%v: append after recovery: %v", cut, padded, err)
			}
			l2.Close()
		}
	}
}

func TestLogResetPreservesLSNMonotonicity(t *testing.T) {
	l, path := newTestLog(t)
	defer os.Remove(path)
	l.AppendPage(1, pageImage(0x55))
	l.AppendCommit()
	end := l.EndLSN()
	if err := l.Reset(end + RecordOverhead); err != nil {
		t.Fatal(err)
	}
	lsn := l.AppendPage(1, pageImage(0x66))
	if lsn < end {
		t.Fatalf("post-reset LSN %d below pre-reset end %d", lsn, end)
	}
	if err := l.Reset(l.EndLSN() - 1); err == nil {
		t.Fatal("Reset accepted a base below the current end LSN")
	}
	l.Close()
}

func TestLogCheckpointBoundsReplay(t *testing.T) {
	l, path := newTestLog(t)
	dbPath := filepath.Join(filepath.Dir(path), "pages.db")
	df := openFile(t, dbPath)
	df.Truncate(3 * testPageSize)
	df.Close()

	l.AppendPage(1, pageImage(0x10))
	l.AppendCommit()
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	l.AppendPage(2, pageImage(0x20))
	l.AppendCommit()
	l.Sync()
	l.Close()

	l2, stats := recoverFrom(t, path, dbPath, nil)
	defer l2.Close()
	if stats.Checkpoints != 1 {
		t.Fatalf("Checkpoints = %d, want 1", stats.Checkpoints)
	}
	// Only the post-checkpoint image is replayed; the checkpoint asserts
	// page 1 already reached the page file.
	if stats.PagesApplied != 1 {
		t.Fatalf("PagesApplied = %d, want 1", stats.PagesApplied)
	}
	if stats.LastCheckpointLSN == 0 {
		t.Fatal("LastCheckpointLSN not reported")
	}
}

func TestLogReplaySkipsNewerOnDiskPages(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	dbPath := filepath.Join(dir, "pages.db")
	f := openFile(t, path)
	l, err := Create(f, testPageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	lsn := l.AppendPage(1, pageImage(0x77))
	l.AppendCommit()
	l.Sync()
	l.Close()

	// Simulate the page having already been flushed with that exact LSN.
	df := openFile(t, dbPath)
	page := make([]byte, testPageSize)
	copy(page, pageImage(0x77))
	store.StampPageFooter(page, uint64(lsn))
	if _, err := df.WriteAt(page, testPageSize); err != nil {
		t.Fatal(err)
	}
	df.Truncate(2 * testPageSize)
	df.Close()

	l2, stats := recoverFrom(t, path, dbPath, nil)
	defer l2.Close()
	if stats.PagesSkipped != 1 || stats.PagesApplied != 0 {
		t.Fatalf("stats = %+v, want 1 skip / 0 applies", stats)
	}
}

func TestLogTornHeaderReinitializesWithFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	dbPath := filepath.Join(dir, "pages.db")
	if err := os.WriteFile(path, []byte("garbage header"), 0o644); err != nil {
		t.Fatal(err)
	}
	lf := openFile(t, path)
	df := openFile(t, dbPath)
	l, stats, err := Recover(lf, df, testPageSize, 777, nil)
	df.Close()
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if stats.Replayed {
		t.Fatal("Replayed = true for a torn header")
	}
	if stats.TornBytes != int64(len("garbage header")) {
		t.Fatalf("TornBytes = %d", stats.TornBytes)
	}
	if got := l.EndLSN(); got != 777 {
		t.Fatalf("reinitialized base = %d, want fallback 777", got)
	}
}

func TestEnsureDurable(t *testing.T) {
	l, _ := newTestLog(t)
	defer l.Close()
	lsn := l.AppendPage(1, pageImage(0x01))
	l.AppendCommit()
	if l.DurableLSN() > lsn {
		t.Fatal("record durable before any sync")
	}
	if err := l.EnsureDurable(lsn, true); err != nil {
		t.Fatal(err)
	}
	if l.DurableLSN() <= lsn {
		t.Fatalf("EnsureDurable did not advance DurableLSN past %d", lsn)
	}
	// LSN 0 ("never logged") is always a no-op.
	if err := l.EnsureDurable(0, true); err != nil {
		t.Fatal(err)
	}
}
