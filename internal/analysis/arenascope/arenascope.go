// Package arenascope enforces the lifetime contract of the posting
// arena (internal/postings RefArena): slices carved by Take stay valid
// only for the arena's lifetime and the arena is single-goroutine, so
// an arena-backed value must never outlive the arena's owner:
//
//   - a LOCAL arena (var arena postings.RefArena in the function) owns
//     its memory for the call only: carved values must not be
//     returned, stored into any field or element, or otherwise leave
//     the function;
//   - a FIELD arena (c.arena on a cursor or stream) is co-owned with
//     its holder: carved values may be returned to the holder's caller
//     (the cursor contract) and stored into fields of the same holder,
//     but not into other objects;
//   - a PARAMETER arena is owned by the caller, which manages the
//     lifetime: carved values may flow back freely (fetchPiece builds
//     relations from the caller's per-evaluation arena);
//   - for every class, storing a carved value into a package-level
//     variable, sending it on a channel, or touching it from a go
//     statement is a violation.
//
// The analyzer tracks the directly bound result variable and direct
// uses of the carving call (derived aliases are out of scope), and
// skips _test.go files.
package arenascope

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the arenascope pass.
var Analyzer = &analysis.Analyzer{
	Name: "arenascope",
	Doc:  "check that arena-carved slices do not outlive their arena's owner",
	Run:  run,
}

// ownerClass classifies who owns the arena an expression names.
type ownerClass int

const (
	ownerUnknown ownerClass = iota
	ownerLocal
	ownerField
	ownerParam
)

// carve is one arena carving: the call, the arena owner's class, the
// owner's base identifier (for field arenas), and the bound result
// variable when the carve was a plain define.
type carve struct {
	call    *ast.CallExpr
	class   ownerClass
	base    types.Object // field arenas: the holder (c in c.arena)
	bound   types.Object // result variable, nil for direct uses
	carveAt token.Pos
}

// run visits every function and checks each carving in it.
func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if len(file.Decls) > 0 && analysis.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		analysis.Funcs(file, func(fb analysis.FuncBody) {
			checkFunc(pass, fb)
		})
	}
	return nil
}

// checkFunc finds the carves in fb and applies the ownership rules.
func checkFunc(pass *analysis.Pass, fb analysis.FuncBody) {
	var carves []carve
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own FuncBody visit
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		arenaExpr := carvingArena(pass, call)
		if arenaExpr == nil {
			return true
		}
		cl, base := classifyOwner(pass, fb, arenaExpr)
		carves = append(carves, carve{call: call, class: cl, base: base, carveAt: call.Pos()})
		return true
	})
	if len(carves) == 0 {
		return
	}
	// Bind result variables: nodes := arena.Take(n).
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok.String() != ":=" || len(assign.Rhs) != 1 {
			return true
		}
		for i := range carves {
			if carves[i].call == assign.Rhs[0] && len(assign.Lhs) == 1 {
				if id, ok := assign.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					carves[i].bound = pass.TypesInfo.ObjectOf(id)
				}
			}
		}
		return true
	})
	for _, cv := range carves {
		checkCarve(pass, fb, cv)
	}
}

// carvingArena returns the arena expression when call carves from one
// — a.Take(n), matched by method name plus arena type name. Nil
// otherwise.
func carvingArena(pass *analysis.Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Take" || !isArenaType(pass.TypesInfo.TypeOf(sel.X)) {
		return nil
	}
	return sel.X
}

// isArenaType reports whether t is (a pointer to) a named type called
// RefArena.
func isArenaType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "RefArena"
}

// classifyOwner decides who owns the arena expression: a local
// variable, a parameter, or a field of some holder object.
func classifyOwner(pass *analysis.Pass, fb analysis.FuncBody, arenaExpr ast.Expr) (ownerClass, types.Object) {
	e := arenaExpr
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ue.X
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(e)
		if obj == nil {
			return ownerUnknown, nil
		}
		if analysis.IsParam(obj, fb, pass.TypesInfo) {
			return ownerParam, nil
		}
		if analysis.IsPackageLevel(obj) {
			return ownerField, obj // treat like a holder: same-base stores only
		}
		return ownerLocal, nil
	case *ast.SelectorExpr:
		if base := analysis.BaseIdent(e); base != nil {
			return ownerField, pass.TypesInfo.ObjectOf(base)
		}
	}
	return ownerUnknown, nil
}

// checkCarve applies the ownership rules to one carve's uses.
func checkCarve(pass *analysis.Pass, fb analysis.FuncBody, cv carve) {
	derives := func(e ast.Expr) bool { return derivesFromCarve(e, cv, pass.TypesInfo) }
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if cv.class != ownerLocal {
				return true
			}
			for _, r := range n.Results {
				if derives(r) {
					pass.Reportf(n.Pos(), "arena-carved value returned from %s, which owns the arena locally: the memory dies with this call; copy it", fb.Name)
				}
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if !derives(r) {
					continue
				}
				target := n.Lhs[0]
				if i < len(n.Lhs) {
					target = n.Lhs[i]
				}
				checkStore(pass, fb, cv, n.Pos(), target)
			}
		case *ast.SendStmt:
			if derives(n.Value) {
				pass.Reportf(n.Pos(), "arena-carved value sent on a channel (in %s): arenas are single-goroutine; copy it", fb.Name)
			}
		case *ast.GoStmt:
			if usesCarve(n.Call, cv, pass.TypesInfo) {
				pass.Reportf(n.Pos(), "arena-carved value used from a goroutine (in %s): arenas are single-goroutine; copy it", fb.Name)
			}
		}
		return true
	})
}

// checkStore applies the store rules for one assignment target.
func checkStore(pass *analysis.Pass, fb analysis.FuncBody, cv carve, pos token.Pos, target ast.Expr) {
	if id, ok := target.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if analysis.IsPackageLevel(obj) {
			pass.Reportf(pos, "arena-carved value stored into package-level variable %s (in %s): it outlives the arena; copy it", id.Name, fb.Name)
		}
		return // plain local: fine (the binding itself)
	}
	base := analysis.BaseIdent(target)
	if base == nil {
		pass.Reportf(pos, "arena-carved value stored into a non-local location (in %s): copy it", fb.Name)
		return
	}
	baseObj := pass.TypesInfo.ObjectOf(base)
	if analysis.IsPackageLevel(baseObj) {
		pass.Reportf(pos, "arena-carved value stored into package-level %s (in %s): it outlives the arena; copy it", base.Name, fb.Name)
		return
	}
	switch cv.class {
	case ownerLocal:
		pass.Reportf(pos, "arena-carved value stored into field or element of %s, but the arena is local to %s: the store outlives the arena; copy it", base.Name, fb.Name)
	case ownerField:
		if baseObj != cv.base {
			pass.Reportf(pos, "arena-carved value stored into field or element of %s, but the arena lives on %s (in %s): the store can outlive the arena; copy it",
				base.Name, ownerName(cv.base), fb.Name)
		}
	case ownerParam, ownerUnknown:
		// Caller-owned (or unclassifiable): locals and their fields
		// share the caller-managed lifetime.
	}
}

// ownerName names the arena holder for diagnostics.
func ownerName(obj types.Object) string {
	if obj == nil {
		return "another object"
	}
	return obj.Name()
}

// derivesFromCarve reports whether e is the carve's bound variable (or
// the carving call itself), possibly through slicing, parens,
// address-of or a composite literal. Indexing is a value copy for
// NodeRef elements and does not derive; calls are a copy boundary.
func derivesFromCarve(e ast.Expr, cv carve, info *types.Info) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		return e == cv.call
	case *ast.Ident:
		return cv.bound != nil && info.ObjectOf(e) == cv.bound
	case *ast.SliceExpr:
		return derivesFromCarve(e.X, cv, info)
	case *ast.ParenExpr:
		return derivesFromCarve(e.X, cv, info)
	case *ast.UnaryExpr:
		return e.Op == token.AND && derivesFromCarve(e.X, cv, info)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if derivesFromCarve(el, cv, info) {
				return true
			}
		}
	}
	return false
}

// usesCarve reports whether n references the carve's bound variable.
func usesCarve(n ast.Node, cv carve, info *types.Info) bool {
	return cv.bound != nil && analysis.UsesObject(n, cv.bound, info)
}
