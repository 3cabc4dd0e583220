// Package nilness is a self-contained reimplementation of the
// high-confidence core of the x/tools nilness pass (which needs the
// unavailable go/ssa machinery; see internal/analysis's package comment
// for why the dependency cannot be vendored). Plain `go vet` does not
// run nilness.
//
// Inside the branch taken when `x == nil` holds (or the else of
// `x != nil`), dereferencing x — selecting a field through a nil
// pointer, indexing a nil slice, writing to a nil map, calling a nil
// function, or unary * — is a guaranteed runtime panic. The check is
// purely syntactic over one if statement and bails out when the branch
// reassigns x or takes its address.
package nilness

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the nilness (lite) pass.
var Analyzer = &analysis.Analyzer{
	Name: "nilness",
	Run:  run,
}

// run flags dereferences of x inside the branch where a
// syntactic nil test guarantees x is nil.
func run(pass *analysis.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok || ifs.Init != nil {
				return true
			}
			be, ok := ifs.Cond.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			var x *ast.Ident
			switch {
			case analysis.IsNil(be.Y, pass.TypesInfo):
				x, _ = be.X.(*ast.Ident)
			case analysis.IsNil(be.X, pass.TypesInfo):
				x, _ = be.Y.(*ast.Ident)
			}
			if x == nil || x.Name == "_" {
				return true
			}
			obj := pass.TypesInfo.ObjectOf(x)
			if obj == nil {
				return true
			}
			var nilBranch ast.Stmt
			switch be.Op {
			case token.EQL: // x == nil: then-branch has x nil
				nilBranch = ifs.Body
			case token.NEQ: // x != nil: else-branch has x nil
				nilBranch = ifs.Else
			}
			if nilBranch == nil {
				return true
			}
			checkNilBranch(pass, nilBranch, obj)
			return true
		})
	}
}

// checkNilBranch reports guaranteed-panic dereferences of obj inside
// branch, bailing out entirely if the branch reassigns obj.
func checkNilBranch(pass *analysis.Pass, branch ast.Stmt, obj types.Object) {
	reassigned := false
	ast.Inspect(branch, func(n ast.Node) bool {
		if assign, ok := n.(*ast.AssignStmt); ok {
			for _, l := range assign.Lhs {
				if id, ok := l.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					reassigned = true
				}
			}
		}
		if ue, ok := n.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			if id, ok := ue.X.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				reassigned = true // address taken: the callee may set it
			}
		}
		return !reassigned
	})
	if reassigned {
		return
	}
	ast.Inspect(branch, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if !analysis.IsIdentOf(n.X, obj, pass.TypesInfo) {
				return true
			}
			// Selecting a FIELD through a nil pointer panics; calling a
			// method may be legal (nil receivers), so only flag fields.
			if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal && isPointer(pass.TypesInfo.TypeOf(n.X)) {
				pass.Reportf(n.Pos(), "field %s selected on %s, which is nil here: guaranteed panic", n.Sel.Name, obj.Name())
			}
		case *ast.StarExpr:
			if analysis.IsIdentOf(n.X, obj, pass.TypesInfo) && isPointer(pass.TypesInfo.TypeOf(n.X)) {
				pass.Reportf(n.Pos(), "dereference of %s, which is nil here: guaranteed panic", obj.Name())
			}
		case *ast.IndexExpr:
			if analysis.IsIdentOf(n.X, obj, pass.TypesInfo) {
				switch pass.TypesInfo.TypeOf(n.X).Underlying().(type) {
				case *types.Slice, *types.Pointer:
					pass.Reportf(n.Pos(), "index of %s, which is nil here: guaranteed panic", obj.Name())
				}
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if ix, ok := l.(*ast.IndexExpr); ok && analysis.IsIdentOf(ix.X, obj, pass.TypesInfo) {
					if _, isMap := pass.TypesInfo.TypeOf(ix.X).Underlying().(*types.Map); isMap {
						pass.Reportf(ix.Pos(), "write to map %s, which is nil here: guaranteed panic", obj.Name())
					}
				}
			}
		case *ast.CallExpr:
			if analysis.IsIdentOf(n.Fun, obj, pass.TypesInfo) {
				if _, isSig := pass.TypesInfo.TypeOf(n.Fun).Underlying().(*types.Signature); isSig {
					pass.Reportf(n.Pos(), "call of %s, which is nil here: guaranteed panic", obj.Name())
				}
			}
		}
		return true
	})
}

// isPointer reports whether t's underlying type is a pointer.
func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}
