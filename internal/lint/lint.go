// Package lint is a stdlib-only static-analysis framework for the WALRUS
// repository. It loads and type-checks the module's packages (go/parser +
// go/types, with imports resolved through `go list -export` data, so the
// module keeps its zero-dependency go.mod) and runs repo-specific
// analyzers that machine-check the contracts the test suite can only
// sample:
//
//   - ctxflow: request-path packages must propagate their
//     context.Context — no context.Background()/TODO() where a caller's
//     ctx is in scope, no exported entry points that take a ctx and never
//     consult it, no worker-pool fan-out that an expired deadline cannot
//     stop.
//   - determinism: the signature-extraction pipeline must be bit-exact
//     reproducible — no wall-clock reads, no global math/rand, no
//     map-iteration order or goroutine schedule leaking into results.
//   - errsink: every error on the durability surface (store.File, pager,
//     buffer pool, heap, WAL, imgio I/O) must be observed.
//   - goroleak: every go statement needs a provable shutdown edge — a
//     WaitGroup join, a channel handoff the package receives, a quit
//     channel the package closes, or a documented lint-ignore.
//   - hotalloc: files annotated //walrus:lint-hot must not allocate per
//     loop iteration (make, growing append, slice/map literals,
//     interface boxing).
//   - lockdiscipline: methods of mutex-carrying structs must hold the
//     documented lock before touching "guarded by mu" fields, and must
//     not upgrade RLock to Lock.
//   - obs: instrumented packages must route wall-clock reads through the
//     annotated clock helpers (obs.Clock/obs.Since, statsClock/statsSince)
//     named on the shared clockExempt list.
//   - parallelconv: closures handed to internal/parallel pools must write
//     per-index slots, never shared captured state.
//   - snapshotsafe: methods of the root package's Snapshot type must stay
//     lock-free and must not mutate published snapshot state.
//
// Diagnostics can be suppressed per line with
//
//	//walrus:lint-ignore <analyzer> <reason>
//
// where the reason is mandatory: an ignore without one is itself a
// diagnostic. A package outside an analyzer's default scope can opt in
// with `//walrus:lint-scope <analyzer>` in any of its files, and a file
// joins the hotalloc hot set with `//walrus:lint-hot`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"

	"walrus/internal/parallel"
)

// Package is one type-checked package under analysis.
type Package struct {
	// ImportPath is the package's import path; ModPath the enclosing
	// module's path; Rel the module-relative package path ("" for the
	// module root).
	ImportPath string
	ModPath    string
	Rel        string
	// Dir is the directory the package was loaded from.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Directives are the //walrus:lint-* comment directives found in the
	// package's files.
	Directives []Directive
}

// ScopedFor reports whether any file of the package opts into the named
// analyzer with a //walrus:lint-scope directive.
func (p *Package) ScopedFor(analyzer string) bool {
	for _, d := range p.Directives {
		if d.Kind == "scope" && d.Analyzer == analyzer {
			return true
		}
	}
	return false
}

// HotFiles returns the set of file names (as recorded in the FileSet)
// carrying a //walrus:lint-hot directive.
func (p *Package) HotFiles() map[string]bool {
	out := make(map[string]bool)
	for _, d := range p.Directives {
		if d.Kind == "hot" {
			out[d.File] = true
		}
	}
	return out
}

// Diagnostic is one analyzer finding at a file position.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// Analyzer is one named check over a single package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (package, analyzer) run; analyzers report findings
// through it.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the repo's analyzers in stable order.
func All() []*Analyzer {
	return []*Analyzer{CtxFlow, Determinism, ErrSink, GoroLeak, HotAlloc, LockDiscipline, Obs, ParallelConv, SnapshotSafe}
}

// lintIgnoreName is the pseudo-analyzer that owns directive-hygiene
// diagnostics (malformed or undocumented //walrus:lint-* directives).
// Its findings cannot be suppressed.
const lintIgnoreName = "lintignore"

// Run applies the analyzers to every package on the parallel pool,
// enforces directive hygiene, applies //walrus:lint-ignore suppression,
// and returns the surviving diagnostics sorted by position, with each
// analyzer's wall time summed over the packages.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, map[string]time.Duration) {
	perPkg := make([][]Diagnostic, len(pkgs))
	spent := make([][]time.Duration, len(pkgs))
	parallel.For(len(pkgs), 0, func(i int) {
		perPkg[i], spent[i] = analyzePackage(pkgs[i], analyzers)
	})
	var diags []Diagnostic
	times := make(map[string]time.Duration, len(analyzers))
	for i := range pkgs {
		diags = append(diags, perPkg[i]...)
		for j, a := range analyzers {
			times[a.Name] += spent[i][j]
		}
	}
	sortDiagnostics(diags)
	return diags, times
}

// analyzePackage runs the analyzers over one package, enforces directive
// hygiene, and applies //walrus:lint-ignore suppression. Directives are
// file-scoped, so each package's suppression is independent of every
// other's — which is what lets Run analyze packages in parallel. It also
// returns each analyzer's wall time on this package, in analyzers' order.
func analyzePackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []time.Duration) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	type key struct {
		file     string
		line     int
		analyzer string
	}
	var diags []Diagnostic
	suppressed := make(map[key]bool)
	spent := make([]time.Duration, len(analyzers))
	for i, a := range analyzers {
		start := time.Now()
		a.Run(&Pass{Pkg: pkg, analyzer: a, diags: &diags})
		spent[i] = time.Since(start)
	}
	for _, d := range pkg.Directives {
		hygiene := func(format string, args ...any) {
			diags = append(diags, Diagnostic{
				Analyzer: lintIgnoreName,
				File:     d.File, Line: d.Line, Col: d.Col,
				Message: fmt.Sprintf(format, args...),
			})
		}
		switch {
		case d.Kind == "hot":
			// A hot mark is file-scoped and names no analyzer.
		case d.Analyzer == "":
			hygiene("malformed //walrus:lint-%s directive: missing analyzer name", d.Kind)
		case !known[d.Analyzer]:
			hygiene("unknown analyzer %q in //walrus:lint-%s directive", d.Analyzer, d.Kind)
		case d.Kind == "ignore" && d.Reason == "":
			hygiene("//walrus:lint-ignore %s is missing a reason; document why the diagnostic is suppressed", d.Analyzer)
		case d.Kind == "ignore":
			// A well-formed ignore suppresses the analyzer on its own
			// line (trailing comment) and the next (standalone comment).
			suppressed[key{d.File, d.Line, d.Analyzer}] = true
			suppressed[key{d.File, d.Line + 1, d.Analyzer}] = true
		}
	}
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if d.Analyzer != lintIgnoreName && suppressed[key{d.File, d.Line, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return out, spent
}

// sortDiagnostics orders diagnostics by position, then analyzer, then
// message — the order WriteText emits.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
