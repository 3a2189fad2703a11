// Package crashfs provides a fault-injecting store.File used to test
// crash recovery deterministically. An Injector is shared by every file
// of one database directory and counts mutating operations (WriteAt,
// Sync, Truncate); at a configured operation it "kills the process":
// the triggering operation fails — optionally persisting only a prefix
// of the write, a torn write — and every subsequent operation on every
// file fails too, so no further state reaches disk. The on-disk bytes at
// that instant are exactly what a real crash at that kill point would
// leave behind, which lets a test enumerate every kill point of a
// scripted workload and assert that recovery reproduces a serial oracle.
package crashfs

import (
	"errors"
	"os"
	"slices"
	"sync"

	"walrus/internal/store"
)

// ErrKilled is returned by every file operation after the injector's
// kill point has triggered.
var ErrKilled = errors.New("crashfs: simulated crash")

// Injector coordinates fault injection across the files of a database.
// The zero configuration (after New) injects nothing but still counts
// operations, which is how tests size a crash matrix.
type Injector struct {
	mu     sync.Mutex
	ops    int64
	killAt int64 // kill when ops reaches this value; 0 = never
	tear   int   // on a write-triggered kill, persist this many bytes (-1 = none)
	killed bool
	trace  []Op // the operations counted since Arm, in order
}

// OpKind is the kind of a mutating file operation.
type OpKind int

// The mutating operations an Injector counts.
const (
	OpWrite OpKind = iota
	OpSync
	OpTruncate
)

// Op describes one counted operation; Trace lists them, so a test can
// aim a kill point (Trace()[i] is kill point i+1) at a particular write.
type Op struct {
	Path string // the file, as opened
	Kind OpKind
	Off  int64 // write offset, or the size truncated to
	Len  int   // bytes written
	Zero bool  // a write of zero bytes only
}

// New returns an injector with no faults armed.
func New() *Injector { return &Injector{tear: -1} }

// Arm schedules a kill at the killAt-th mutating operation from now
// (1-based). If the triggering operation is a write, tearBytes of it are
// persisted first (-1 persists nothing; a value in [0, len) models a torn
// write). Counting restarts from zero.
func (in *Injector) Arm(killAt int64, tearBytes int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.ops = 0
	in.killAt = killAt
	in.tear = tearBytes
	in.killed = false
	in.trace = in.trace[:0]
}

// Trace returns the operations counted since Arm (or creation), oldest
// first, including the one that triggered the kill.
func (in *Injector) Trace() []Op {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Op(nil), in.trace...)
}

// Ops returns the number of mutating operations observed since Arm (or
// creation).
func (in *Injector) Ops() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Killed reports whether the kill point has triggered.
func (in *Injector) Killed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.killed
}

// step accounts one mutating operation. It returns (tearBytes, error):
// error is ErrKilled when the operation must fail, and tearBytes >= 0
// tells a write how many bytes to persist before failing.
func (in *Injector) step(op Op) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.killed {
		return -1, ErrKilled
	}
	in.ops++
	in.trace = append(in.trace, op)
	if in.killAt > 0 && in.ops >= in.killAt {
		in.killed = true
		return in.tear, ErrKilled
	}
	return -1, nil
}

func (in *Injector) checkRead() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.killed {
		return ErrKilled
	}
	return nil
}

// Open opens path through the injector. flag is os.OpenFile flags.
func (in *Injector) Open(path string, flag int) (store.File, error) {
	if err := in.checkRead(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{f: f, in: in, path: path}, nil
}

// File wraps an *os.File with fault injection. It implements store.File.
type File struct {
	f    *os.File
	in   *Injector
	path string
}

// ReadAt passes through unless the process is already "dead".
func (c *File) ReadAt(p []byte, off int64) (int, error) {
	if err := c.in.checkRead(); err != nil {
		return 0, err
	}
	return c.f.ReadAt(p, off)
}

// WriteAt counts one operation; at the kill point it persists only the
// configured prefix (a torn write) and fails.
func (c *File) WriteAt(p []byte, off int64) (int, error) {
	zero := !slices.ContainsFunc(p, func(b byte) bool { return b != 0 })
	tear, err := c.in.step(Op{Path: c.path, Kind: OpWrite, Off: off, Len: len(p), Zero: zero})
	if err != nil {
		if tear > 0 {
			if tear > len(p) {
				tear = len(p)
			}
			// The injected kill already decided this write fails; the torn
			// prefix is deliberately unaccounted, like a real power cut.
			//walrus:lint-ignore errsink simulating a torn write: the injected failure supersedes the prefix write's error
			c.f.WriteAt(p[:tear], off)
		}
		return 0, err
	}
	return c.f.WriteAt(p, off)
}

// Sync counts one operation; at the kill point it fails without syncing.
func (c *File) Sync() error {
	if _, err := c.in.step(Op{Path: c.path, Kind: OpSync}); err != nil {
		return err
	}
	return c.f.Sync()
}

// Truncate counts one operation; at the kill point it fails without
// truncating.
func (c *File) Truncate(size int64) error {
	if _, err := c.in.step(Op{Path: c.path, Kind: OpTruncate, Off: size}); err != nil {
		return err
	}
	return c.f.Truncate(size)
}

// Close closes the underlying file; it is not a counted operation and
// works even after the kill point (the test harness needs to release
// descriptors).
func (c *File) Close() error { return c.f.Close() }
