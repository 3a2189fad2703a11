package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak requires every go statement in non-test code to have a
// provable shutdown edge — evidence, visible in the same package, that
// the spawned goroutine terminates and is joined:
//
//   - WaitGroup join: the goroutine calls Done on a sync.WaitGroup the
//     package calls Wait on.
//   - Result handoff: the goroutine sends on a channel the package
//     receives from (the `go func() { errCh <- srv.Serve(ln) }()`
//     pattern — the send is the goroutine's last act and the receive is
//     the join).
//   - Join close: the goroutine closes a channel the package receives
//     from (`defer close(done)` + `<-done`).
//   - Quit signal: the goroutine receives from a channel the package
//     closes (`case <-quit:` worker loops joined by `close(quit)`).
//
// For `go m.run()` statements the callee's body is inlined one level
// when it is declared in the same package, so a worker loop started as a
// method proves itself: run's `defer m.wg.Done()` matches the package's
// `m.wg.Wait()` (the gorofix fixture's pool). Anything else needs
// //walrus:lint-ignore goroleak <reason> — an undocumented goroutine is
// exactly how a drain path rots into a leak.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "require a provable shutdown edge (WaitGroup join, channel handoff, or quit signal) for every go statement",
	Run:  runGoroLeak,
}

// joinEvidence is the package-wide join surface: the objects the package
// waits on, closes, or receives from anywhere in its non-test files.
type joinEvidence struct {
	wgWait  map[types.Object]bool // WaitGroups with a .Wait() call
	chClose map[types.Object]bool // channels passed to close()
	chRecv  map[types.Object]bool // channels received from
}

func runGoroLeak(pass *Pass) {
	pkg := pass.Pkg
	ev := collectJoinEvidence(pkg)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goBody(pkg, gs)
			if body == nil || !hasShutdownEdge(pkg, body, ev) {
				pass.Reportf(gs.Pos(), "goroutine has no provable shutdown edge (WaitGroup join, channel handoff, join close, or quit signal); join it or document with //walrus:lint-ignore goroleak <reason>")
			}
			return true
		})
	}
}

// goBody resolves the statements the spawned goroutine runs: the func
// literal's body, or — for `go m.run()` — the body of a callee declared
// in the same package (one level of inlining).
func goBody(pkg *Package, gs *ast.GoStmt) *ast.BlockStmt {
	if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return fl.Body
	}
	fn := calleeOf(pkg.Info, gs.Call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkg.Types.Path() {
		return nil
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Pos() == fn.Pos() {
				return fd.Body
			}
		}
	}
	return nil
}

// collectJoinEvidence scans every file of the package for the join-side
// operations a goroutine's shutdown edge can anchor to.
func collectJoinEvidence(pkg *Package) joinEvidence {
	ev := joinEvidence{
		wgWait:  make(map[types.Object]bool),
		chClose: make(map[types.Object]bool),
		chRecv:  make(map[types.Object]bool),
	}
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && isWaitGroupExpr(info, sel.X) {
					if obj := refObj(info, sel.X); obj != nil {
						ev.wgWait[obj] = true
					}
				}
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
						if obj := refObj(info, n.Args[0]); obj != nil {
							ev.chClose[obj] = true
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if obj := refObj(info, n.X); obj != nil {
						ev.chRecv[obj] = true
					}
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						if obj := refObj(info, n.X); obj != nil {
							ev.chRecv[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	return ev
}

// hasShutdownEdge reports whether the goroutine body contains one of the
// accepted shutdown edges, matched by object identity against the
// package's join evidence.
func hasShutdownEdge(pkg *Package, body *ast.BlockStmt, ev joinEvidence) bool {
	info := pkg.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && isWaitGroupExpr(info, sel.X) {
				if obj := refObj(info, sel.X); obj != nil && ev.wgWait[obj] {
					found = true
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					if obj := refObj(info, n.Args[0]); obj != nil && ev.chRecv[obj] {
						found = true
					}
				}
			}
		case *ast.SendStmt:
			if obj := refObj(info, n.Chan); obj != nil && ev.chRecv[obj] {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := refObj(info, n.X); obj != nil && ev.chClose[obj] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// refObj resolves the object a channel or WaitGroup expression refers
// to: the variable for a plain identifier, the field for a selector
// (c.wg, s.done). Field objects are shared by every method of the type,
// which is what lets a Done in one method match a Wait in another.
func refObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.StarExpr:
		return refObj(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return refObj(info, e.X)
		}
	}
	return nil
}

// isWaitGroupExpr reports whether e has type sync.WaitGroup (possibly
// behind a pointer).
func isWaitGroupExpr(info *types.Info, e ast.Expr) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
