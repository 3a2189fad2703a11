package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc polices per-iteration allocation in files marked
// //walrus:lint-hot — the wavelet sliding-window DP, region clustering,
// and refine/score stages where the ROADMAP's raw-speed pass will live.
// Inside any loop body of a hot file (including closures submitted to
// the internal/parallel pools, which run once per task) it flags:
//
//   - make(...) — a fresh slice/map/channel every iteration;
//   - append(dst, ...) — growth reallocation unless dst was
//     preallocated with enough capacity, which the analyzer cannot
//     prove, so every hot-loop append is surfaced;
//   - slice and map composite literals;
//   - interface boxing: passing a concrete value to an interface
//     parameter, which escapes the value to the heap.
//
// Every finding is fatal; a loop that must allocate says why in a
// lint-ignore directive.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag per-iteration allocation and interface boxing in //walrus:lint-hot files",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	hot := pass.Pkg.HotFiles()
	if len(hot) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		if !hot[pass.Pkg.Fset.Position(f.Pos()).Filename] {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				ast.Walk(&hotVisitor{pass: pass}, fd.Body)
			}
		}
	}
}

// hotVisitor walks a hot function carrying the innermost enclosing loop
// (nil outside loops). Loop bodies are visited with a fresh visitor so
// the loop context nests correctly; closures handed to parallel.For and
// parallel.ForErr count as loop bodies because the pool runs them once
// per task.
type hotVisitor struct {
	pass  *Pass
	loop  ast.Node
	inLit bool // inside a flagged composite literal; suppress nested reports
}

func (v *hotVisitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.ForStmt:
		if n.Init != nil {
			ast.Walk(v, n.Init)
		}
		if n.Cond != nil {
			ast.Walk(v, n.Cond)
		}
		if n.Post != nil {
			ast.Walk(v, n.Post)
		}
		ast.Walk(&hotVisitor{pass: v.pass, loop: n}, n.Body)
		return nil
	case *ast.RangeStmt:
		ast.Walk(v, n.X)
		ast.Walk(&hotVisitor{pass: v.pass, loop: n}, n.Body)
		return nil
	case *ast.CallExpr:
		if fl, ok := fanOutClosure(v.pass.Pkg.Info, n); ok {
			for _, arg := range n.Args[:2] {
				ast.Walk(v, arg)
			}
			ast.Walk(&hotVisitor{pass: v.pass, loop: n}, fl.Body)
			return nil
		}
		if v.loop != nil {
			v.checkCall(n)
		}
	case *ast.CompositeLit:
		if v.loop != nil && !v.inLit && v.checkComposite(n) {
			inner := *v
			inner.inLit = true
			for _, elt := range n.Elts {
				ast.Walk(&inner, elt)
			}
			return nil
		}
	}
	return v
}

// fanOutClosure returns the func literal submitted to a
// parallel.For/ForErr call, if the call is one.
func fanOutClosure(info *types.Info, call *ast.CallExpr) (*ast.FuncLit, bool) {
	if !isParallelFanOut(calleeOf(info, call)) || len(call.Args) != 3 {
		return nil, false
	}
	fl, ok := ast.Unparen(call.Args[2]).(*ast.FuncLit)
	return fl, ok
}

// checkCall flags make, append, and interface-boxing arguments inside a
// hot loop. Messages carry names and types but no positions.
func (v *hotVisitor) checkCall(call *ast.CallExpr) {
	info := v.pass.Pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if len(call.Args) > 0 {
					v.pass.Reportf(call.Pos(), "make(%s) inside a hot loop allocates every iteration; hoist the buffer out of the loop and reuse it", types.ExprString(call.Args[0]))
				}
			case "append":
				if len(call.Args) > 0 {
					dst := "slice"
					if id := rootIdent(call.Args[0]); id != nil {
						dst = id.Name
					}
					v.pass.Reportf(call.Pos(), "append to %q inside a hot loop may reallocate every iteration; preallocate capacity outside the loop", dst)
				}
			}
			return
		}
	}
	// Type conversions are not calls and do not box by themselves.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		param := paramAt(sig, i)
		if param == nil {
			continue
		}
		if _, isIface := param.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || at == types.Typ[types.UntypedNil] {
			continue
		}
		if _, already := at.Underlying().(*types.Interface); already {
			continue
		}
		qual := types.RelativeTo(v.pass.Pkg.Types)
		v.pass.Reportf(arg.Pos(), "passing %s to an interface parameter inside a hot loop boxes the value onto the heap; keep the inner loop monomorphic", types.TypeString(at, qual))
	}
}

// paramAt returns the type of the i-th argument's parameter, unrolling
// variadics.
func paramAt(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

// checkComposite flags slice and map composite literals inside a hot
// loop; struct value literals stay legal (no heap allocation by
// themselves). Reports whether the literal was flagged.
func (v *hotVisitor) checkComposite(lit *ast.CompositeLit) bool {
	t := v.pass.Pkg.Info.TypeOf(lit)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		qual := types.RelativeTo(v.pass.Pkg.Types)
		v.pass.Reportf(lit.Pos(), "%s literal inside a hot loop allocates every iteration; hoist it or reuse a buffer", types.TypeString(t, qual))
		return true
	}
	return false
}
