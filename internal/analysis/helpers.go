package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FuncBody is one function-shaped syntax node an analyzer visits: a
// declaration or a literal, with its body and (for declarations) its
// name for diagnostics.
type FuncBody struct {
	// Name is the declared name, or "func literal".
	Name string
	// Decl is the enclosing declaration when the body belongs to one
	// (nil for literals).
	Decl *ast.FuncDecl
	// Type is the function signature syntax.
	Type *ast.FuncType
	// Body is the function body; never nil.
	Body *ast.BlockStmt
}

// ForEachFunc calls visit on every function body — declarations and
// literals, so closures are checked too — in the package's non-test
// files. The contract analyzers skip _test.go files: tests deliberately
// construct broken states, and the invariants they lock are exercised
// by the fixtures instead.
func ForEachFunc(pass *Pass, visit func(FuncBody)) {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					visit(FuncBody{Name: n.Name.Name, Decl: n, Type: n.Type, Body: n.Body})
				}
			case *ast.FuncLit:
				visit(FuncBody{Name: "func literal", Type: n.Type, Body: n.Body})
			}
			return true
		})
	}
}

// UsesObject reports whether any identifier under n resolves to obj.
func UsesObject(n ast.Node, obj types.Object, info *types.Info) bool {
	if obj == nil || n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// ErrExemptCond builds a flow.Config.ExemptCond classifier for the
// `err != nil` acquisition-failure idiom on errObj: the branch where
// the acquisition failed carries no release obligation.
func ErrExemptCond(errObj types.Object, info *types.Info) func(cond ast.Expr) int {
	if errObj == nil {
		return nil
	}
	return func(cond ast.Expr) int {
		be, ok := cond.(*ast.BinaryExpr)
		if !ok {
			return 0
		}
		var other ast.Expr
		switch {
		case IsIdentOf(be.X, errObj, info):
			other = be.Y
		case IsIdentOf(be.Y, errObj, info):
			other = be.X
		default:
			return 0
		}
		if !IsNil(other, info) {
			return 0
		}
		switch be.Op {
		case token.NEQ:
			return 1 // err != nil: true branch is the failure path
		case token.EQL:
			return -1 // err == nil: false branch is the failure path
		}
		return 0
	}
}

// IsIdentOf reports whether e is an identifier for obj.
func IsIdentOf(e ast.Expr, obj types.Object, info *types.Info) bool {
	id, ok := e.(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}

// IsNil reports whether e is the predeclared nil.
func IsNil(e ast.Expr, info *types.Info) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

// ReceiverIdent returns the receiver of a selector call like e.pin()
// when it is a plain identifier, else nil.
func ReceiverIdent(call *ast.CallExpr) *ast.Ident {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return id
}

// BaseIdent peels selectors, indexes, slices, stars, parens and
// unary & from an expression down to its root identifier, or nil.
func BaseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// IsPackageLevel reports whether obj is declared at package scope.
func IsPackageLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// IsError reports whether t is the error interface.
func IsError(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
