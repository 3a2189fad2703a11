package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline checks methods of mutex-carrying structs: a field whose
// declaration comment says "guarded by mu" may only be touched while the
// receiver's mu is held, and mu.Lock() must never run while mu.RLock() is
// already held (an RWMutex upgrade deadlocks). Methods whose name ends in
// "Locked" are exempt by convention — their contract is "caller holds
// mu".
//
// Every method is additionally forbidden from acquiring another guarded
// object's mu directly (database code reaching into a shard's mu, say):
// each mutex is private to its owner, and bypassing the owner's methods
// silently skips whatever invariants those methods maintain. Route the
// access through a method of the owning object.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "flag guarded-field access without the documented mutex and RLock-to-Lock upgrades",
	Run:  runLockDiscipline,
}

const guardedMarker = "guarded by mu"

// guardedType records one struct type carrying a `mu` mutex and the names
// of its guarded fields.
type guardedType struct {
	fields map[string]bool
}

func runLockDiscipline(pass *Pass) {
	pkg := pass.Pkg
	guarded := collectGuardedTypes(pkg)
	if len(guarded) == 0 {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // contract: caller holds mu
			}
			recvObj, typeName := receiverOf(pkg, fd)
			if recvObj == nil {
				continue
			}
			gt, ok := guarded[typeName]
			if !ok {
				// An unguarded receiver has no lock state of its own, but
				// may hold guarded objects — the DB holds its shards — whose
				// mutexes it must not take.
				gt = &guardedType{}
			}
			checkMethodLocking(pass, fd, recvObj, typeName, gt, guarded)
		}
	}
}

// collectGuardedTypes finds struct types declaring a `mu` sync.Mutex or
// sync.RWMutex field plus at least one field whose comment contains
// "guarded by mu".
func collectGuardedTypes(pkg *Package) map[string]*guardedType {
	out := make(map[string]*guardedType)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				hasMu := false
				fields := make(map[string]bool)
				for _, field := range st.Fields.List {
					comment := field.Doc.Text() + " " + field.Comment.Text()
					for _, name := range field.Names {
						if name.Name == "mu" {
							hasMu = true
							continue
						}
						if strings.Contains(comment, guardedMarker) {
							fields[name.Name] = true
						}
					}
				}
				if hasMu && len(fields) > 0 {
					out[ts.Name.Name] = &guardedType{fields: fields}
				}
			}
		}
	}
	return out
}

// receiverOf returns the receiver variable object and the name of its
// (pointer-unwrapped) named type.
func receiverOf(pkg *Package, fd *ast.FuncDecl) (types.Object, string) {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil, ""
	}
	name := fd.Recv.List[0].Names[0]
	obj := pkg.Info.Defs[name]
	if obj == nil {
		return nil, ""
	}
	named := namedOf(obj.Type())
	if named == nil {
		return nil, ""
	}
	return obj, named.Obj().Name()
}

// lockEvent is one position-ordered action inside a method body relevant
// to the lock-state simulation.
type lockEvent struct {
	pos     token.Pos
	kind    string // "lock", "rlock", "unlock", "runlock", "read", "write"
	field   string // for read/write
	inDefer bool
}

// checkMethodLocking simulates lock state over the method's statements in
// source order and reports guarded accesses outside the lock plus
// RLock-to-Lock upgrades. The simulation is linear — branches are treated
// as straight-line code — which is deliberately conservative-enough for a
// repo whose locking style is acquire-at-top, defer-unlock.
func checkMethodLocking(pass *Pass, fd *ast.FuncDecl, recv types.Object, recvType string, gt *guardedType, guarded map[string]*guardedType) {
	info := pass.Pkg.Info
	var events []lockEvent
	var deferDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncLit:
			// Closures run on their own schedule; their guarded accesses
			// are the invoker's responsibility.
			return false
		case *ast.DeferStmt:
			deferDepth++
			ast.Inspect(st.Call, walk)
			deferDepth--
			return false
		case *ast.CallExpr:
			if field, method, ok := recvSelector2(info, recv, st.Fun); ok && field == "mu" {
				switch method {
				case "Lock", "RLock", "Unlock", "RUnlock":
					events = append(events, lockEvent{
						pos: st.Pos(), kind: strings.ToLower(method), inDefer: deferDepth > 0,
					})
					return false
				}
			}
			if owner, ownerType, method, ok := foreignMuOp(info, recv, guarded, st.Fun); ok {
				pass.Reportf(st.Pos(), "%s.mu.%s() inside %s.%s acquires another %s's private mutex; call a %s method instead",
					types.ExprString(owner), method, recvType, fd.Name.Name, ownerType, ownerType)
				return false
			}
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if field, ok := recvFieldAccess(info, recv, lhs); ok && gt.fields[field] {
					events = append(events, lockEvent{pos: lhs.Pos(), kind: "write", field: field})
				}
			}
			for _, rhs := range st.Rhs {
				ast.Inspect(rhs, walk)
			}
			return false
		case *ast.SelectorExpr:
			if field, ok := recvFieldAccess(info, recv, st); ok && gt.fields[field] {
				events = append(events, lockEvent{pos: st.Pos(), kind: "read", field: field})
				return false
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	state := "unlocked"
	for _, ev := range events {
		switch ev.kind {
		case "lock":
			if state == "rlocked" {
				pass.Reportf(ev.pos, "%s.mu.Lock() while mu.RLock() is held: RWMutex upgrade deadlocks", recv.Name())
			}
			state = "locked"
		case "rlock":
			state = "rlocked"
		case "unlock", "runlock":
			if !ev.inDefer {
				state = "unlocked"
			}
		case "read":
			if state == "unlocked" {
				pass.Reportf(ev.pos, "%s.%s is guarded by mu but read without holding it; acquire mu or rename the method with the Locked suffix", recv.Name(), ev.field)
			}
		case "write":
			switch state {
			case "unlocked":
				pass.Reportf(ev.pos, "%s.%s is guarded by mu but written without holding it; acquire mu or rename the method with the Locked suffix", recv.Name(), ev.field)
			case "rlocked":
				pass.Reportf(ev.pos, "%s.%s written under mu.RLock(); writes require the exclusive lock", recv.Name(), ev.field)
			}
		}
	}
}

// recvSelector2 matches expressions of the form recv.<field>.<method>
// (e.g. db.mu.Lock) and returns the field and method names.
func recvSelector2(info *types.Info, recv types.Object, e ast.Expr) (field, method string, ok bool) {
	outer, okSel := ast.Unparen(e).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	inner, okSel := ast.Unparen(outer.X).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okSel := ast.Unparen(inner.X).(*ast.Ident)
	if !okSel || info.Uses[id] != recv {
		return "", "", false
	}
	return inner.Sel.Name, outer.Sel.Name, true
}

// foreignMuOp matches <owner>.mu.<Lock/RLock/...> where owner is NOT the
// receiver and owner's (pointer-unwrapped) type is a guarded type of this
// package: a cross-object mutex acquisition. The DB holds references to
// its per-shard guarded objects; this is the shape that would let it
// bypass a shard's own locking discipline.
func foreignMuOp(info *types.Info, recv types.Object, guarded map[string]*guardedType, e ast.Expr) (owner ast.Expr, ownerType, method string, ok bool) {
	outer, okSel := ast.Unparen(e).(*ast.SelectorExpr)
	if !okSel || !mutexOpNames[outer.Sel.Name] {
		return nil, "", "", false
	}
	inner, okSel := ast.Unparen(outer.X).(*ast.SelectorExpr)
	if !okSel || inner.Sel.Name != "mu" {
		return nil, "", "", false
	}
	if id, isIdent := ast.Unparen(inner.X).(*ast.Ident); isIdent && info.Uses[id] == recv {
		return nil, "", "", false // the receiver's own mu: handled by the lock simulation
	}
	named := namedOf(info.TypeOf(inner.X))
	if named == nil || guarded[named.Obj().Name()] == nil {
		return nil, "", "", false
	}
	return inner.X, named.Obj().Name(), outer.Sel.Name, true
}

// recvFieldAccess matches recv.<field> (possibly indexed or dereferenced
// further) and returns the field name.
func recvFieldAccess(info *types.Info, recv types.Object, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.StarExpr:
			e = x.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || info.Uses[id] != recv {
		return "", false
	}
	return sel.Sel.Name, true
}
