package lint

import (
	"go/ast"
	"go/types"
)

// snapshotSafeScope is the default package set: the module root, where
// the Snapshot type lives. Other packages can opt in with
// //walrus:lint-scope snapshotsafe (the fixture does).
var snapshotSafeScope = map[string]bool{
	"": true,
}

// snapshotTypeNames are the named types making up a published snapshot.
// Methods of the snapshotMethodTypes are checked; expressions of any of
// these types are treated as immutable snapshot state.
var snapshotTypeNames = map[string]bool{
	"Snapshot":      true,
	"shardSnapshot": true,
	"snapCore":      true,
}

// snapshotMethodTypes are the receiver types whose methods must honor
// the snapshot contract. The public Snapshot pins one epoch-matched
// shardSnapshot per shard, so the cross-shard view is held to the same
// rules as each per-shard one the query stages run on.
var snapshotMethodTypes = map[string]bool{
	"Snapshot":      true,
	"shardSnapshot": true,
}

// mutexOpNames are the sync.Mutex/RWMutex methods a snapshot method may
// never call: snapshot reads are lock-free by contract.
var mutexOpNames = map[string]bool{
	"Lock": true, "Unlock": true,
	"RLock": true, "RUnlock": true,
	"TryLock": true, "TryRLock": true,
}

// SnapshotSafe machine-checks the snapshot-isolation contract of the
// root package: methods with a Snapshot or shardSnapshot receiver must
// not acquire (or release) any mutex — in particular a shard's mu — and
// must not mutate snapshot state, i.e. assign, increment or delete
// through any expression of type Snapshot, shardSnapshot or snapCore.
// Published snapshots are immutable and read lock-free; a method that
// breaks either property reintroduces exactly the reader/writer races
// the snapshot layer removed.
var SnapshotSafe = &Analyzer{
	Name: "snapshotsafe",
	Doc:  "forbid mutex use and snapshot-state mutation inside Snapshot methods",
	Run:  runSnapshotSafe,
}

func runSnapshotSafe(pass *Pass) {
	pkg := pass.Pkg
	if !snapshotSafeScope[pkg.Rel] && !pkg.ScopedFor(pass.analyzer.Name) {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			_, typeName := receiverOf(pkg, fd)
			if !snapshotMethodTypes[typeName] {
				continue
			}
			checkSnapshotMethod(pass, fd, typeName)
		}
	}
}

func checkSnapshotMethod(pass *Pass, fd *ast.FuncDecl, typeName string) {
	pkg := pass.Pkg
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && mutexOpNames[sel.Sel.Name] && isMutexExpr(pkg.Info, sel.X) {
				pass.Reportf(n.Pos(), "snapshot methods are lock-free by contract: %s.%s must not acquire a mutex inside %s.%s",
					types.ExprString(sel.X), sel.Sel.Name, typeName, fd.Name.Name)
			}
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin && snapshotStateExpr(pkg.Info, n.Args[0]) {
					pass.Reportf(n.Pos(), "snapshot state is immutable: delete from %s mutates published snapshot state in %s.%s",
						types.ExprString(n.Args[0]), typeName, fd.Name.Name)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if snapshotStateExpr(pkg.Info, lhs) {
					pass.Reportf(lhs.Pos(), "snapshot state is immutable: %s is written inside %s.%s",
						types.ExprString(lhs), typeName, fd.Name.Name)
				}
			}
		case *ast.IncDecStmt:
			if snapshotStateExpr(pkg.Info, n.X) {
				pass.Reportf(n.Pos(), "snapshot state is immutable: %s is written inside %s.%s",
					types.ExprString(n.X), typeName, fd.Name.Name)
			}
		}
		return true
	})
}

// snapshotStateExpr reports whether writing through expr mutates
// snapshot state: some strict prefix of the selector/index chain has one
// of the snapshot types (possibly behind pointers). The check is
// type- rather than name-based, so aliases like `core := s.core` are
// still caught.
func snapshotStateExpr(info *types.Info, expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			if isSnapshotType(info.TypeOf(e.X)) {
				return true
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// isSnapshotType unwraps pointers and reports whether t is one of the
// snapshot types.
func isSnapshotType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return snapshotTypeNames[n.Obj().Name()]
}

// isMutexExpr reports whether e is a sync.Mutex or sync.RWMutex value
// (possibly behind a pointer) — i.e. whether calling Lock on it is a
// real mutex acquisition rather than an unrelated method.
func isMutexExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
