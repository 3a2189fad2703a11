package crashfs

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestInjectorCountsAndKills(t *testing.T) {
	in := New()
	path := filepath.Join(t.TempDir(), "f")
	f, err := in.Open(path, os.O_RDWR|os.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	in.Arm(3, -1)
	if _, err := f.WriteAt([]byte("one"), 0); err != nil { // op 1
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("three"), 10); err == nil { // op 3: kill
		t.Fatal("kill point did not trigger")
	} else if !errors.Is(err, ErrKilled) {
		t.Fatalf("wrong error: %v", err)
	}
	if !in.Killed() {
		t.Fatal("Killed() = false after kill")
	}
	// Everything afterwards fails, on every file.
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrKilled) {
		t.Fatalf("ReadAt after kill: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrKilled) {
		t.Fatalf("Sync after kill: %v", err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrKilled) {
		t.Fatalf("Truncate after kill: %v", err)
	}
	if _, err := in.Open(path, os.O_RDWR); !errors.Is(err, ErrKilled) {
		t.Fatalf("Open after kill: %v", err)
	}
	// The killed write persisted nothing.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 3 {
		t.Fatalf("file holds %d bytes, want 3 (killed write leaked)", len(data))
	}
}

func TestInjectorTornWrite(t *testing.T) {
	in := New()
	path := filepath.Join(t.TempDir(), "f")
	f, err := in.Open(path, os.O_RDWR|os.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in.Arm(1, 4)
	if _, err := f.WriteAt([]byte("torn-write-payload"), 0); !errors.Is(err, ErrKilled) {
		t.Fatalf("expected kill, got %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "torn" {
		t.Fatalf("persisted %q, want the 4-byte prefix \"torn\"", data)
	}
}

func TestInjectorDisarmAndOps(t *testing.T) {
	in := New()
	path := filepath.Join(t.TempDir(), "f")
	f, err := in.Open(path, os.O_RDWR|os.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 5; i++ {
		if _, err := f.WriteAt([]byte{byte(i)}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := in.Ops(); got != 5 {
		t.Fatalf("Ops = %d, want 5", got)
	}
	// Re-arming resets the counter; Arm(0) never kills.
	in.Arm(0, -1)
	if got := in.Ops(); got != 0 {
		t.Fatalf("Ops after Arm = %d, want 0", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if in.Killed() {
		t.Fatal("Killed with killAt=0")
	}
}

// TestInjectorTrace: Trace lists every counted operation since Arm, in
// order, up to and including the one that triggered the kill.
func TestInjectorTrace(t *testing.T) {
	in := New()
	path := filepath.Join(t.TempDir(), "f")
	f, err := in.Open(path, os.O_RDWR|os.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("before arm"), 0); err != nil {
		t.Fatal(err)
	}
	in.Arm(4, -1)
	if _, err := f.WriteAt([]byte("data"), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 16), 12); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(3); !errors.Is(err, ErrKilled) {
		t.Fatalf("Truncate at the kill point: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrKilled) { // after the kill: fails, not counted
		t.Fatalf("Sync after the kill: %v", err)
	}
	want := []Op{
		{Path: path, Kind: OpWrite, Off: 8, Len: 4},
		{Path: path, Kind: OpWrite, Off: 12, Len: 16, Zero: true},
		{Path: path, Kind: OpSync},
		{Path: path, Kind: OpTruncate, Off: 3},
	}
	if got := in.Trace(); !slices.Equal(got, want) {
		t.Fatalf("Trace = %+v, want %+v", got, want)
	}
}
