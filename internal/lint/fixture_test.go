package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sharedLoader builds one Loader per test binary: fixture packages and
// the real module share its FileSet, export-data cache, and type-checked
// package memo, which keeps the suite fast.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// expectation is one `// want` comment: a regexp that must match a
// diagnostic at file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantRe matches `// want` and `// want+N` comments; backtick-quoted
// regexps follow.
var (
	wantRe      = regexp.MustCompile(`//\s*want(\+\d+)?\s+(.*)$`)
	wantQuoteRe = regexp.MustCompile("`([^`]+)`")
)

// parseWants scans the fixture package's files for `// want` comments.
// A plain `// want` expects the diagnostic on its own line; `// want+N`
// expects it N lines below (for diagnostics on directive lines, which
// cannot carry a second trailing comment).
func parseWants(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			target := i + 1 // 1-based
			if m[1] != "" {
				n, err := strconv.Atoi(m[1][1:])
				if err != nil {
					t.Fatalf("%s:%d: bad want offset %q", path, i+1, m[1])
				}
				target += n
			}
			quotes := wantQuoteRe.FindAllStringSubmatch(m[2], -1)
			if len(quotes) == 0 {
				t.Fatalf("%s:%d: want comment without a backtick-quoted regexp", path, i+1)
			}
			for _, q := range quotes {
				re, err := regexp.Compile(q[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				out = append(out, expectation{file: path, line: target, re: re})
			}
		}
	}
	return out
}

// runFixture lints one testdata package with the given analyzers and
// checks the resulting diagnostics against the fixture's want comments:
// every want must be matched by exactly one diagnostic and every
// diagnostic must be claimed by a want.
func runFixture(t *testing.T, fixture string, analyzers ...*Analyzer) {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags, _ := Run([]*Package{pkg}, analyzers)
	wants := parseWants(t, pkg.Dir)

	claimed := make([]bool, len(diags))
	for _, w := range wants {
		matched := false
		for i, d := range diags {
			if claimed[i] || d.Line != w.line || !sameFile(d.File, w.file) {
				continue
			}
			if w.re.MatchString(d.Message) {
				claimed[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !claimed[i] {
			t.Errorf("%s:%d: unexpected diagnostic [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
		}
	}
}

// sameFile compares diagnostic and expectation paths, which may differ
// in absoluteness.
func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	if err1 != nil || err2 != nil {
		return filepath.Base(a) == filepath.Base(b)
	}
	return aa == bb
}

// fmtDiags renders diagnostics for failure messages.
func fmtDiags(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&sb, "  %s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
	return sb.String()
}
