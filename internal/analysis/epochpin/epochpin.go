// Package epochpin enforces the epoch pin/release pairing of
// internal/core's live-index machinery: every successful pin must be
// released on every path out of the acquiring scope, or explicitly
// handed off to whoever finishes the query.
//
// Two acquisition forms are recognized by name and shape:
//
//	e, err := l.pin()   // (handle, error): the Live.pin form
//	if e.pin() { ... }  // bool: the epoch-retry form
//
// Discharges, beyond e.release() / e.unref():
//
//   - defer e.release();
//   - transferring the handle or its release on: returning e (Live.pin
//     hands the pinned epoch to its caller), passing e to a call, or
//     parking the method value — res.stream.release = e.release is how
//     SearchStream keeps the pin alive until All() finishes (the
//     deferred-stream path where the iteration IS the evaluation);
//   - returns inside the acquisition's own err != nil branch, where no
//     pin was taken.
//
// Reading through the handle (e.set, e.segs, e.gen) is a use, not a
// discharge. The analyzer skips _test.go files.
package epochpin

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the epochpin pass.
var Analyzer = &analysis.Analyzer{
	Name: "epochpin",
	Run: func(pass *analysis.Pass) {
		analysis.ForEachFunc(pass, func(fb analysis.FuncBody) { checkFunc(pass, fb) })
	},
}

// releaseNames are the methods that drop a pin reference.
var releaseNames = map[string]bool{"release": true, "unref": true, "Release": true, "Unref": true}

// checkFunc checks pin acquisitions directly inside fb's body.
func checkFunc(pass *analysis.Pass, fb analysis.FuncBody) {
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own FuncBody visit
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkHandleForm(pass, fb, n)
		case *ast.IfStmt:
			checkGuardForm(pass, fb, n)
		}
		return true
	})
}

// checkHandleForm handles `e, err := x.pin()`: a define binding a
// handle and an error from a call to a method named pin.
func checkHandleForm(pass *analysis.Pass, fb analysis.FuncBody, assign *ast.AssignStmt) {
	if assign.Tok.String() != ":=" || len(assign.Rhs) != 1 || len(assign.Lhs) != 2 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !isPinCall(call) {
		return
	}
	tup, ok := pass.TypesInfo.TypeOf(call).(*types.Tuple)
	if !ok || tup.Len() != 2 || !analysis.IsError(tup.At(1).Type()) {
		return
	}
	handle, ok := assign.Lhs[0].(*ast.Ident)
	if !ok || handle.Name == "_" {
		pass.Reportf(assign.Pos(), "pin result discarded: bind the handle and release it")
		return
	}
	hObj := pass.TypesInfo.ObjectOf(handle)
	var errObj types.Object
	if errv, ok := assign.Lhs[1].(*ast.Ident); ok && errv.Name != "_" {
		errObj = pass.TypesInfo.ObjectOf(errv)
	}
	scope, ok := flow.ScopeAfter(fb.Body, assign)
	if !ok {
		return
	}
	cfg := flow.Config{
		AcquirePos: assign.Pos(),
		Discharges: func(s ast.Stmt) bool { return dischargesHandle(s, hObj, pass.TypesInfo) },
		ExemptCond: analysis.ErrExemptCond(errObj, pass.TypesInfo),
	}
	for _, v := range flow.Check(cfg, scope) {
		pass.Reportf(v.Pos, "epoch pin %s: release not called on %s path (in %s)", handle.Name, v.Kind, fb.Name)
	}
}

// checkGuardForm handles `if e.pin() { ... }` and `if !e.pin() { ... }`
// where pin returns bool: the obligation lives in the branch where the
// pin succeeded.
func checkGuardForm(pass *analysis.Pass, fb analysis.FuncBody, ifs *ast.IfStmt) {
	cond := ifs.Cond
	negated := false
	if ue, ok := cond.(*ast.UnaryExpr); ok && ue.Op.String() == "!" {
		cond, negated = ue.X, true
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok || !isPinCall(call) {
		return
	}
	if b, ok := pass.TypesInfo.TypeOf(call).Underlying().(*types.Basic); !ok || b.Kind() != types.Bool {
		return
	}
	recv := analysis.ReceiverIdent(call)
	if recv == nil {
		return
	}
	hObj := pass.TypesInfo.ObjectOf(recv)
	var scope []ast.Stmt
	if negated {
		// if !e.pin() { <no pin here> }: the success path is whatever
		// follows the if; only check it when the failure branch cannot
		// fall through (common `continue`/`return` retry idiom) —
		// otherwise success and failure merge and the scope would
		// need path sensitivity on the pin result itself.
		out := flow.Check(flow.Config{
			AcquirePos: ifs.Pos(),
			Discharges: func(ast.Stmt) bool { return false },
		}, []ast.Stmt{ifs.Body})
		terminal := true
		for _, v := range out {
			if v.Kind == flow.LeakScopeEnd {
				terminal = false
			}
		}
		if !terminal {
			return
		}
		var okScope bool
		scope, okScope = flow.ScopeAfter(fb.Body, ifs)
		if !okScope {
			return
		}
	} else {
		scope = ifs.Body.List
	}
	cfg := flow.Config{
		AcquirePos: ifs.Pos(),
		Discharges: func(s ast.Stmt) bool { return dischargesHandle(s, hObj, pass.TypesInfo) },
	}
	for _, v := range flow.Check(cfg, scope) {
		pass.Reportf(v.Pos, "epoch pin %s: release not called on %s path (in %s)", recv.Name, v.Kind, fb.Name)
	}
}

// isPinCall reports whether call invokes a method named pin/Pin.
func isPinCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "pin" || sel.Sel.Name == "Pin")
}

// dischargesHandle reports whether stmt discharges the pin obligation
// on handle hObj: calling (or deferring, or storing) its
// release/unref, or transferring the handle itself as a bare value —
// returned, assigned, or passed to a call. Selecting any other member
// (e.set, e.segs) is a read, not a discharge.
func dischargesHandle(stmt ast.Stmt, hObj types.Object, info *types.Info) bool {
	if hObj == nil {
		return false
	}
	discharged := false
	// Identifiers consumed by a selector e.X: a release selector
	// discharges; any other selector is a plain read.
	inSelector := make(map[*ast.Ident]bool)
	ast.Inspect(stmt, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || info.ObjectOf(id) != hObj {
			return true
		}
		inSelector[id] = true
		if releaseNames[sel.Sel.Name] {
			discharged = true
		}
		return true
	})
	if discharged {
		return true
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.ObjectOf(id) != hObj || inSelector[id] {
			return true
		}
		// Bare use of the handle: a transfer (return e, f(e), x = e).
		discharged = true
		return false
	})
	return discharged
}
