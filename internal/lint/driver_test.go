package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTempModule lays down a two-package throwaway module: package a
// carries a goroleak finding, package b is clean.
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": `package a

// Leak spawns a goroutine with no shutdown edge.
func Leak() {
	go func() {
		select {}
	}()
}
`,
		"b/b.go": `package b

// Add is allocation- and goroutine-free.
func Add(x, y int) int { return x + y }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRunModuleTimings lints a throwaway module the way walrus-lint does
// (Load, then Run) and checks that -v accounting attributes wall time to
// every analyzer that ran.
func TestRunModuleTimings(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list; skipped in -short")
	}
	l, err := NewLoader(writeTempModule(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	diags, spent := Run(pkgs, All())
	if len(diags) != 1 || diags[0].Analyzer != "goroleak" {
		t.Fatalf("diagnostics: %+v, want one goroleak finding", diags)
	}
	if len(spent) != len(All()) {
		t.Errorf("timed %d analyzers, want %d: %v", len(spent), len(All()), spent)
	}
}
