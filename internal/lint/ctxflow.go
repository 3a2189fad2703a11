package lint

import (
	"go/ast"
	"go/types"
)

// ctxFlowScope lists the request-path packages: everything between an
// HTTP request's deadline and the worker-pool fan-out it must be able to
// stop. The module root carries the staged query pipeline, internal/serve
// the front-end, internal/parallel the pools themselves. Other packages
// opt in with //walrus:lint-scope ctxflow.
var ctxFlowScope = map[string]bool{
	"":                  true,
	"internal/serve":    true,
	"internal/parallel": true,
}

// ctxFanOutReceivers are the root package's snapshot types — the public
// Snapshot and the per-shard shardSnapshot the query stages run on: their
// methods ARE the staged query pipeline, so any of them that fans out
// over the worker pool must carry the request context — otherwise
// QueryContext's deadline dies at that stage's doorstep.
var ctxFanOutReceivers = map[string]bool{
	"Snapshot":      true,
	"shardSnapshot": true,
}

// CtxFlow machine-checks the context plumbing of the request path, added
// in the serving PR and easy to rot silently:
//
//  1. Inside a function with a context.Context in scope, calls to
//     context.Background() or context.TODO() discard the caller's
//     deadline and are flagged. A function with no ctx in scope — a
//     CLI's main calling QueryContext(context.Background(), ...) — has
//     no deadline to lose and stays legal.
//  2. An exported function or method that takes a context.Context must
//     consult it — a ctx parameter the body never reads (or a blank _
//     parameter) advertises deadline support it does not deliver.
//  3. A worker-pool fan-out (parallel.For / parallel.ForErr) in a
//     function with a ctx in scope must consult the ctx inside the
//     submitted closure, so an expired deadline stops the fan-out
//     per task instead of burning every worker slot.
//  4. A Snapshot or shardSnapshot method that fans out over the worker
//     pool must take a context parameter at all: the staged pipeline is
//     exactly the code QueryContext promises to cancel.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "propagate request contexts through the serve/query/parallel pipeline",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	pkg := pass.Pkg
	if !ctxFlowScope[pkg.Rel] && !pkg.ScopedFor(pass.analyzer.Name) {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParams, blankCtx := ctxParamsOf(pkg.Info, fd.Type)
			if fd.Name.IsExported() {
				checkCtxConsulted(pass, fd, ctxParams, blankCtx)
			}
			checkCtxBody(pass, fd.Body, ctxParams)
			checkFanOutDecl(pass, fd, ctxParams)
		}
	}
}

// ctxParamsOf returns the objects of the function type's context.Context
// parameters, and whether any context parameter is blank (named _).
func ctxParamsOf(info *types.Info, ft *ast.FuncType) (params []types.Object, blank []*ast.Ident) {
	if ft.Params == nil {
		return nil, nil
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				blank = append(blank, name)
				continue
			}
			if obj := info.Defs[name]; obj != nil {
				params = append(params, obj)
			}
		}
	}
	return params, blank
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCtxConsulted flags exported entry points whose ctx parameter is
// never read in the body (rule 2).
func checkCtxConsulted(pass *Pass, fd *ast.FuncDecl, ctxParams []types.Object, blankCtx []*ast.Ident) {
	for _, id := range blankCtx {
		pass.Reportf(id.Pos(), "exported %s discards its context parameter (_); name it and consult ctx.Err() or forward it", fd.Name.Name)
	}
	for _, obj := range ctxParams {
		used := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Pkg.Info.Uses[id] == obj {
				used = true
			}
			return !used
		})
		if !used {
			pass.Reportf(obj.Pos(), "exported %s takes a context that is never consulted; check ctx.Err() or forward it down the pipeline", fd.Name.Name)
		}
	}
}

// checkCtxBody walks a function body carrying the set of in-scope ctx
// objects (growing through nested func literals) and enforces rules 1
// and 3 wherever a ctx is in scope.
func checkCtxBody(pass *Pass, body ast.Node, ctxs []types.Object) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := ctxs
			params, _ := ctxParamsOf(info, n.Type)
			inner = append(inner[:len(inner):len(inner)], params...)
			checkCtxBody(pass, n.Body, inner)
			return false
		case *ast.CallExpr:
			if len(ctxs) == 0 {
				return true
			}
			fn := calleeOf(info, n)
			switch funcPath(fn) {
			case "context.Background", "context.TODO":
				pass.Reportf(n.Pos(), "context.%s() discards the caller's deadline: forward %q instead", fn.Name(), ctxs[0].Name())
			}
			if isParallelFanOut(fn) {
				checkFanOutClosure(pass, n, ctxs)
			}
		}
		return true
	})
}

// isParallelFanOut reports whether fn is internal/parallel's For or
// ForErr.
func isParallelFanOut(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != "walrus/internal/parallel" {
		return false
	}
	return fn.Name() == "For" || fn.Name() == "ForErr"
}

// checkFanOutClosure enforces rule 3: the closure submitted to a
// worker-pool fan-out must reference one of the in-scope ctx objects
// (typically `if err := ctx.Err(); err != nil { return err }` at the top
// of each task).
func checkFanOutClosure(pass *Pass, call *ast.CallExpr, ctxs []types.Object) {
	if len(call.Args) != 3 {
		return
	}
	fl, ok := ast.Unparen(call.Args[2]).(*ast.FuncLit)
	if !ok {
		// A named function value: its body is checked where it is defined.
		return
	}
	info := pass.Pkg.Info
	inScope := make(map[types.Object]bool, len(ctxs))
	for _, obj := range ctxs {
		inScope[obj] = true
	}
	// The closure may also take (or rebind) its own ctx — count any
	// context-typed identifier use as consulting the deadline.
	consulted := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !consulted
		}
		obj := info.Uses[id]
		if obj == nil {
			return !consulted
		}
		if inScope[obj] || (obj.Type() != nil && isContextType(obj.Type())) {
			consulted = true
		}
		return !consulted
	})
	if !consulted {
		pass.Reportf(call.Pos(), "parallel fan-out closure never consults %q: check ctx.Err() per task so an expired deadline stops the fan-out", ctxs[0].Name())
	}
}

// checkFanOutDecl enforces rule 4: a snapshot-pipeline method that fans
// out over the worker pool must take a context parameter.
func checkFanOutDecl(pass *Pass, fd *ast.FuncDecl, ctxParams []types.Object) {
	if len(ctxParams) > 0 || fd.Recv == nil {
		return
	}
	_, typeName := receiverOf(pass.Pkg, fd)
	if !ctxFanOutReceivers[typeName] {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isParallelFanOut(calleeOf(pass.Pkg.Info, call)) {
			pass.Reportf(call.Pos(), "%s.%s fans out over the worker pool but takes no context; thread the request ctx through the stage", typeName, fd.Name.Name)
			return false
		}
		return true
	})
}
