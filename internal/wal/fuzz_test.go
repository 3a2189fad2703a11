package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplayWAL feeds arbitrary bytes to Recover as the log file. The
// invariants: recovery never panics, never errors on a readable file
// (corruption is data, not failure), and always returns a log that
// accepts appends — a database must survive any torn or garbage log.
func FuzzReplayWAL(f *testing.F) {
	build := func(fn func(l *Log)) []byte {
		dir, err := os.MkdirTemp("", "walfuzz")
		if err != nil {
			f.Fatal(err)
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "wal.log")
		lf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			f.Fatal(err)
		}
		l, err := Create(lf, testPageSize, 1)
		if err != nil {
			f.Fatal(err)
		}
		fn(l)
		l.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// The rest of the extension chunk is zeros: keep a little of it,
		// so the seeds stay small enough to mutate.
		return data[:min(len(data), len(bytes.TrimRight(data, "\x00"))+64)]
	}

	empty := build(func(l *Log) {})
	full := build(func(l *Log) {
		l.AppendPage(1, pageImage(0xAB))
		l.AppendApp(1, []byte("catalog delta payload"))
		l.AppendCommit()
		l.AppendPage(2, pageImage(0xCD))
		l.AppendCommit()
		l.Checkpoint()
		l.AppendPage(1, pageImage(0xEF))
		l.AppendCommit()
		l.Sync()
	})
	// Several generations over one file, each shorter than the last, so
	// the stale records of the earlier ones follow the current one.
	generations := build(func(l *Log) {
		for gen, n := range []int{6, 3, 1} {
			if gen > 0 {
				next := l.NextBase()
				l.Checkpoint()
				l.Reset(next)
			}
			for i := 0; i < n; i++ {
				l.AppendPage(uint32(1+i%3), pageImage(byte(0x40*gen+i)))
				l.AppendApp(byte(gen+1), []byte("generation delta"))
				l.AppendCommit()
			}
		}
		l.AppendPage(3, pageImage(0x99)) // uncommitted
		l.Sync()
	})
	f.Add(empty)
	f.Add(full)
	f.Add(generations)
	f.Add(generations[:len(generations)/2]) // torn inside a stale generation
	reset := bytes.Clone(generations)
	copy(reset, full[:headerSize]) // the header of the first generation over later records
	f.Add(reset)
	f.Add(full[:len(full)-7])         // torn tail
	f.Add(full[:headerSize+5])        // torn first record
	f.Add(full[:headerSize/2])        // torn header
	f.Add([]byte{})                   // missing log
	f.Add([]byte("not a wal at all")) // garbage
	corrupt := append([]byte(nil), full...)
	corrupt[headerSize+20] ^= 0xFF
	f.Add(corrupt) // bit flip inside a record

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		logPath := filepath.Join(dir, "wal.log")
		dbPath := filepath.Join(dir, "pages.db")
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dbPath, make([]byte, 8*testPageSize), 0o644); err != nil {
			t.Fatal(err)
		}
		lf, err := os.OpenFile(logPath, os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		df, err := os.OpenFile(dbPath, os.O_RDWR, 0o644)
		if err != nil {
			lf.Close()
			t.Fatal(err)
		}
		l, stats, err := Recover(lf, df, testPageSize, 1, func(lsn LSN, kind byte, payload []byte) error {
			return nil
		})
		df.Close()
		if err != nil {
			t.Fatalf("Recover errored on readable input: %v", err)
		}
		if stats.TornBytes < 0 {
			t.Fatalf("negative TornBytes: %+v", stats)
		}
		l.AppendCommit()
		if err := l.Sync(); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()
	})
}
