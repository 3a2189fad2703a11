package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// countingFile is an *os.File that counts the calls which change a
// file's size or flush it.
type countingFile struct {
	*os.File
	truncates, syncs int
}

func (c *countingFile) Truncate(size int64) error {
	c.truncates++
	return c.File.Truncate(size)
}

func (c *countingFile) Sync() error {
	c.syncs++
	return c.File.Sync()
}

func (c *countingFile) size(t *testing.T) int64 {
	t.Helper()
	fi, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// checkpointAndReset ends a generation the way the database does: a
// checkpoint marker, then a reset to the LSN just past it.
func checkpointAndReset(t *testing.T, l *Log) {
	t.Helper()
	next := l.NextBase()
	if _, err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := l.EndLSN(); got != next {
		t.Fatalf("NextBase predicted %d, checkpoint ended at %d", next, got)
	}
	if err := l.Reset(next); err != nil {
		t.Fatal(err)
	}
}

// TestLogReuseKeepsFileSize: once the log has reached its high-water
// size, commits and checkpoints neither truncate nor grow the file, and
// a durable commit costs one fsync.
func TestLogReuseKeepsFileSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	cf := &countingFile{File: openFile(t, path)}
	l, err := Create(cf, testPageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := cf.size(t); got != headerSize {
		t.Fatalf("Create left a %d-byte file, want only the %d-byte header", got, headerSize)
	}
	// A generation of 1.5 chunks: the first one grows the file to two
	// chunks, and every later one fits in it.
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	perGen := extendChunk * 3 / 2 / (len(payload) + 2*RecordOverhead)
	var high int64
	for gen := 0; gen < 4; gen++ {
		truncates := cf.truncates
		for i := 0; i < perGen; i++ {
			l.AppendApp(1, payload)
			l.AppendCommit()
			syncs := cf.syncs
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if cf.syncs != syncs+1 {
				t.Fatalf("gen %d commit %d: %d fsyncs, want 1", gen, i, cf.syncs-syncs)
			}
		}
		checkpointAndReset(t, l)
		size := cf.size(t)
		if size%extendChunk != 0 {
			t.Fatalf("gen %d: file size %d is not a whole number of %d-byte chunks", gen, size, extendChunk)
		}
		if gen == 0 {
			high = size
			if high != 2*extendChunk {
				t.Fatalf("high-water size %d, want %d", high, 2*extendChunk)
			}
			continue
		}
		if cf.truncates != truncates {
			t.Fatalf("gen %d: %d truncates after the high-water mark", gen, cf.truncates-truncates)
		}
		if size != high {
			t.Fatalf("gen %d: file size %d, want the high-water %d", gen, size, high)
		}
	}
	l.Close()

	// A reopen finds the last generation empty, and neither truncates
	// nor grows the file.
	cf = &countingFile{File: openFile(t, path)}
	df := openFile(t, filepath.Join(filepath.Dir(path), "pages.db"))
	l, stats, err := Recover(cf, df, testPageSize, 1, nil)
	df.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed || stats.TornBytes != 0 || cf.truncates != 0 {
		t.Fatalf("clean reopen: stats %+v, %d truncates", stats, cf.truncates)
	}
	for i := 0; i < perGen; i++ {
		l.AppendApp(1, payload)
		l.AppendCommit()
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cf.size(t); got != high || cf.truncates != 0 {
		t.Fatalf("after reopen: size %d (want %d), %d truncates", got, high, cf.truncates)
	}
	l.Close()
}

// TestLogStaleGenerationsNeverReplayed writes several generations over
// one file, each shorter than the last, so the stale records of every
// earlier generation lie past the current end, and checks that recovery
// replays only the current generation: also when a whole, checksummed
// record of an earlier generation, or of a later one, is placed exactly
// where the current generation ends, followed by a commit marker.
func TestLogStaleGenerationsNeverReplayed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	l, err := Create(openFile(t, path), testPageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	for gen, n := range []int{9, 5, 2} {
		if gen > 0 {
			checkpointAndReset(t, l)
		}
		for i := 0; i < n; i++ {
			l.AppendPage(uint32(1+i%2), pageImage(byte(0x10*(gen+1)+i)))
			l.AppendApp(byte(gen+1), []byte{byte(i)})
			l.AppendCommit()
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	base := l.base
	end := l.written
	l.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// recoverImage recovers a copy of the log and returns the kinds of
	// the app records it delivered and its stats.
	recoverImage := func(image []byte) ([]byte, RecoveryStats) {
		t.Helper()
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "wal.log"), image, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "pages.db"), make([]byte, 3*testPageSize), 0o644); err != nil {
			t.Fatal(err)
		}
		var kinds []byte
		l, stats := recoverFrom(t, filepath.Join(sub, "wal.log"), filepath.Join(sub, "pages.db"),
			func(_ LSN, kind byte, _ []byte) error {
				kinds = append(kinds, kind)
				return nil
			})
		l.Close()
		return kinds, stats
	}
	onlyCurrent := func(name string, kinds []byte, stats RecoveryStats) {
		t.Helper()
		if len(kinds) != 2 || kinds[0] != 3 || kinds[1] != 3 {
			t.Fatalf("%s: app records of generations %v replayed, want only generation 3's two", name, kinds)
		}
		if stats.Commits != 2 {
			t.Fatalf("%s: %d commits replayed, want 2", name, stats.Commits)
		}
	}
	kinds, stats := recoverImage(clean)
	onlyCurrent("clean", kinds, stats)
	if stats.TornBytes != 0 {
		t.Fatalf("clean: TornBytes = %d: the stale generations were counted as torn", stats.TornBytes)
	}

	// plant overwrites the log at the current end with a page image, an
	// app record and a commit marker framed with LSNs starting at lsn.
	plant := func(lsn LSN) []byte {
		image := bytes.Clone(clean)
		var recs []byte
		for _, r := range []struct {
			typ     byte
			kind    byte
			pageID  uint32
			payload []byte
		}{{recPage, 0, 1, pageImage(0xEE)}, {recApp, 9, 0, []byte("planted")}, {recCommit, 0, 0, nil}} {
			recs = appendRecord(recs, walVersion, r.typ, r.kind, r.pageID, lsn+LSN(len(recs)), r.payload)
		}
		copy(image[end:], recs)
		return image
	}
	// Generation 1 framed the record it wrote at this offset with the
	// LSN below; any LSN under base is as stale, and one past what this
	// generation would give the offset belongs to no generation yet.
	for _, tc := range []struct {
		name string
		lsn  LSN
		torn bool
	}{
		{"earlier generation", base - 1000, false},
		{"generation 1", 1 + LSN(end-headerSize), false},
		{"later generation", base + LSN(end-headerSize) + 1000, true},
	} {
		kinds, stats := recoverImage(plant(tc.lsn))
		onlyCurrent(tc.name, kinds, stats)
		if (stats.TornBytes > 0) != tc.torn {
			t.Fatalf("%s: TornBytes = %d, want torn=%v", tc.name, stats.TornBytes, tc.torn)
		}
	}
	// The same records framed with the LSNs this generation would give
	// them are this generation's, and replay.
	kinds, _ = recoverImage(plant(base + LSN(end-headerSize)))
	if len(kinds) != 3 || kinds[2] != 9 {
		t.Fatalf("current: app records %v, want generation 3's two and the planted one", kinds)
	}
}

// buildV1 frames a version 1 log: header and records without LSNs.
func buildV1(base LSN, recs ...[]byte) []byte {
	out := encodeHeader(testPageSize, base, walVersionV1)
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

func v1Record(typ, kind byte, pageID uint32, payload []byte) []byte {
	return appendRecord(nil, walVersionV1, typ, kind, pageID, 0, payload)
}

// TestLogRecoversVersion1 recovers a hand-built version 1 log: its
// committed records replay, its uncommitted tail is dropped, appends keep
// its framing, and the first reset rewrites the file as the current
// version.
func TestLogRecoversVersion1(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	dbPath := filepath.Join(dir, "pages.db")
	uncommitted := v1Record(recPage, 0, 2, pageImage(0x22))
	image := buildV1(40,
		v1Record(recPage, 0, 1, pageImage(0x11)),
		v1Record(recApp, 5, 0, []byte("v1 delta")),
		v1Record(recCommit, 0, 0, nil),
		uncommitted,
	)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dbPath, make([]byte, 3*testPageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	var lsns []LSN
	onApp := func(lsn LSN, kind byte, payload []byte) error {
		if kind != 5 || string(payload) != "v1 delta" {
			t.Fatalf("app record kind %d payload %q", kind, payload)
		}
		lsns = append(lsns, lsn)
		return nil
	}
	l, stats := recoverFrom(t, path, dbPath, onApp)
	if stats.PagesApplied != 1 || stats.AppRecords != 1 || stats.Commits != 1 ||
		stats.TornBytes != int64(len(uncommitted)) {
		t.Fatalf("v1 recovery stats %+v", stats)
	}
	if lsns[0] != 40+LSN(recordOverheadV1+testPageSize-16) {
		t.Fatalf("v1 app record LSN %d", lsns[0])
	}
	// Appends continue in version 1 framing and recover.
	l.AppendPage(2, pageImage(0x23))
	l.AppendCommit()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, stats = recoverFrom(t, path, dbPath, nil)
	if stats.PagesApplied != 1 || stats.PagesSkipped != 1 || stats.Commits != 2 || stats.TornBytes != 0 {
		t.Fatalf("v1 recovery after appends: stats %+v", stats)
	}

	// The first reset rewrites the file as the current version.
	checkpointAndReset(t, l)
	l.AppendApp(6, []byte("v2 delta"))
	l.AppendCommit()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != walVersion {
		t.Fatalf("header version %d after the first reset, want %d", v, walVersion)
	}
	if len(raw) != extendChunk {
		t.Fatalf("converted log is %d bytes, want one %d-byte chunk", len(raw), extendChunk)
	}
	var kinds []byte
	l, stats = recoverFrom(t, path, dbPath, func(_ LSN, kind byte, _ []byte) error {
		kinds = append(kinds, kind)
		return nil
	})
	defer l.Close()
	if len(kinds) != 1 || kinds[0] != 6 || stats.PagesApplied != 0 {
		t.Fatalf("converted log replayed kinds %v, stats %+v", kinds, stats)
	}
}
