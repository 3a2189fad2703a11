package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"walrus/internal/parallel"
)

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Module     *struct{ Path string }
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library. Packages under analysis are checked from
// source; their imports (stdlib and module-internal alike) resolve
// through gc export data produced by `go list -export`, which is fast,
// build-cached, and always consistent with what the compiler sees.
//
// A Loader is safe for concurrent use: Load type-checks distinct
// packages from separate goroutines. The FileSet is
// concurrency-safe by contract; the memo maps are guarded by mu and the
// gc importer (which caches internally) is serialized behind impMu.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string

	mu      sync.Mutex          // guards exports and pkgs
	exports map[string]string   // import path -> export data file
	pkgs    map[string]*Package // memoized source-checked packages

	impMu sync.Mutex // serializes the gc importer
	imp   types.Importer
}

// NewLoader locates the module enclosing dir and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		ModRoot: root,
		ModPath: modPath,
		exports: make(map[string]string),
		pkgs:    make(map[string]*Package),
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookupExport)
	return l, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					if mp := strings.Trim(strings.TrimSpace(rest), `"`); mp != "" {
						return d, mp, nil
					}
				}
			}
			return "", "", fmt.Errorf("lint: no module path in %s", filepath.Join(d, "go.mod"))
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", dir)
		}
		d = parent
	}
}

// goList runs `go list -deps -export -json` over the patterns — compiling
// as needed and recording each package's export data file, which is what
// the type-checker resolves imports through — and returns every listed
// package.
func (l *Loader) goList(patterns []string) ([]*listedPackage, error) {
	args := []string{"list", "-deps", "-export",
		"-json=Dir,ImportPath,Export,GoFiles,DepOnly,Standard,Module",
		"--",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModRoot
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if lp.Export != "" {
			l.mu.Lock()
			l.exports[lp.ImportPath] = lp.Export
			l.mu.Unlock()
		}
		out = append(out, &lp)
	}
	return out, nil
}

// exportFile returns the recorded export data file for an import path.
func (l *Loader) exportFile(path string) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	file, ok := l.exports[path]
	return file, ok
}

// lookupExport feeds the gc importer: it returns a reader over the export
// data of one import path, shelling out to `go list` lazily for paths not
// seen yet (e.g. stdlib packages only fixtures import).
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	if _, ok := l.exportFile(path); !ok {
		if _, err := l.goList([]string{path}); err != nil {
			return nil, err
		}
	}
	file, ok := l.exportFile(path)
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// lockedImporter serializes calls into the loader's gc importer, whose
// internal package cache is not safe for concurrent use. It implements
// types.ImporterFrom so the type-checker takes the vendor-aware path.
type lockedImporter struct{ l *Loader }

func (li lockedImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	li.l.impMu.Lock()
	defer li.l.impMu.Unlock()
	if from, ok := li.l.imp.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return li.l.imp.Import(path)
}

// Load type-checks every module package matching the go package patterns
// (default "./...") and returns them sorted by import path. One `go list`
// lists the packages and the export data of their imports; the packages
// are then type-checked from source on the parallel pool. Test files and
// testdata directories are excluded, mirroring what ships in the build.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	all, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var listed []*listedPackage
	for _, lp := range all {
		if !lp.DepOnly && !lp.Standard && lp.Module != nil && lp.Module.Path == l.ModPath {
			listed = append(listed, lp)
		}
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })
	pkgs := make([]*Package, len(listed))
	err = parallel.ForErr(len(listed), 0, func(i int) error {
		var err error
		pkgs[i], err = l.loadFiles(listed[i].Dir, listed[i].ImportPath, listed[i].GoFiles)
		return err
	})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// LoadDir type-checks the single package in dir (which may live under a
// testdata directory, where `go list` does not reach — this is how the
// analyzer fixtures are loaded).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test .go files in %s", dir)
	}
	return l.loadFiles(abs, l.ModPath+"/"+filepath.ToSlash(rel), names)
}

// loadFiles parses and type-checks one package from explicit file names.
func (l *Loader) loadFiles(dir, importPath string, names []string) (*Package, error) {
	l.mu.Lock()
	p, ok := l.pkgs[importPath]
	l.mu.Unlock()
	if ok {
		return p, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: lockedImporter{l}}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		ModPath:    l.ModPath,
		Rel:        strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModPath), "/"),
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	for _, f := range files {
		pkg.Directives = append(pkg.Directives, parseDirectives(l.Fset, f)...)
	}
	l.mu.Lock()
	l.pkgs[importPath] = pkg
	l.mu.Unlock()
	return pkg, nil
}
