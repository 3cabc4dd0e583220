// Package ctxloop locks in the cancellation guarantees of the
// streaming read path (PR 3/4): posting-decode and join loops must
// observe context cancellation, so a caller that abandons a query (or
// a server deadline that fires) stops the work promptly instead of
// after an unbounded scan.
//
// A finding is a "consumption loop" — a for/range statement that
// advances a cursor, i.e. whose condition or body calls a method named
// Next/next/pull/Pull — inside a function that has a context available
// (a context.Context parameter, a lexical reference to one, or a
// receiver struct holding one), where the loop's own nest neither
//
//   - calls Err or Done on a context, nor
//   - passes a context to a callee (delegating the check).
//
// The check is per-loop: an outer loop that checks ctx per iteration
// does not excuse an inner seek loop that can scan a whole relation
// between those iterations. Functions with no context in reach (the
// B+Tree iterator, plain decoders) are exempt — the convention is
// that whoever has the context checks it. _test.go files are skipped.
package ctxloop

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the ctxloop pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxloop",
	Run: func(pass *analysis.Pass) {
		analysis.ForEachFunc(pass, func(fb analysis.FuncBody) { checkFunc(pass, fb) })
	},
}

// advanceNames are the cursor-advancing method names that make a loop
// a consumption loop.
var advanceNames = map[string]bool{"Next": true, "next": true, "pull": true, "Pull": true}

// hasContext reports whether fb can reach a context.Context: as a
// parameter, lexically in its body, or as a field of its receiver.
func hasContext(pass *analysis.Pass, fb analysis.FuncBody) bool {
	if fb.Type.Params != nil {
		for _, f := range fb.Type.Params.List {
			if analysis.IsContext(pass.TypesInfo.TypeOf(f.Type)) {
				return true
			}
		}
	}
	if fb.Decl != nil && fb.Decl.Recv != nil {
		for _, f := range fb.Decl.Recv.List {
			if structHasContext(pass.TypesInfo.TypeOf(f.Type)) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			if t := pass.TypesInfo.TypeOf(e); t != nil && analysis.IsContext(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

// structHasContext reports whether t (possibly a pointer to a named
// struct) has a context.Context field.
func structHasContext(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if analysis.IsContext(s.Field(i).Type()) {
			return true
		}
	}
	return false
}

// checkFunc flags each consumption loop in fb whose nest has no
// context use, when fb has a context in reach.
func checkFunc(pass *analysis.Pass, fb analysis.FuncBody) {
	if !hasContext(pass, fb) {
		return
	}
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // its own FuncBody visit
		}
		var body *ast.BlockStmt
		var cond ast.Expr
		switch n := n.(type) {
		case *ast.ForStmt:
			body, cond = n.Body, n.Cond
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		if !advancesCursor(body, cond) {
			return true
		}
		if usesContext(pass, body) || (cond != nil && usesContext(pass, cond)) {
			return true
		}
		pass.Reportf(n.Pos(), "consumption loop advances a cursor without a ctx check (in %s): add a ctx.Err() check or pass ctx to the callee", fb.Name)
		return true
	})
}

// advancesCursor reports whether the loop's condition or body calls a
// cursor-advancing method.
func advancesCursor(body *ast.BlockStmt, cond ast.Expr) bool {
	found := false
	check := func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && advanceNames[sel.Sel.Name] {
					found = true
				}
			}
			return !found
		})
	}
	check(body)
	if cond != nil {
		check(cond)
	}
	return found
}

// usesContext reports whether n's subtree observes a context: calls
// Err or Done on one, or passes one to a callee.
func usesContext(pass *analysis.Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && analysis.IsContext(pass.TypesInfo.TypeOf(sel.X)) {
				found = true
				return false
			}
		}
		for _, a := range call.Args {
			if t := pass.TypesInfo.TypeOf(a); t != nil && analysis.IsContext(t) {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
