package lint

import "testing"

// TestModuleIsLintClean lints the real module with every analyzer — the
// same run ci.sh gates on — and asserts zero diagnostics. A failure here
// means a context-propagation, determinism, durability,
// goroutine-lifecycle, locking, parallel-convention or hot-loop
// allocation regression slipped into the tree (or an ignore directive
// lost its reason).
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	l := testLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	if diags, _ := Run(pkgs, All()); len(diags) != 0 {
		t.Errorf("module is not lint-clean (%d diagnostics):\n%s", len(diags), fmtDiags(diags))
	}
}
