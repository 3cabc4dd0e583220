// Package borrowcheck enforces the pager's borrow contract
// (internal/pager, "Read path and the borrow contract"): every
// `view, release, err := f.ReadPage(id)` acquisition must call release
// on every path out of the acquiring scope — error returns included —
// the view must not outlive the borrow by escaping the function, and
// nothing may write through a read-only view.
//
// Recognized discharges, beyond a plain release() call:
//
//   - defer release() (covers every later exit);
//   - storing or passing the release value on — parking the borrow in
//     a struct (the B+Tree iterator holds page+release across Next and
//     drops them in dropPage) or returning it transfers the obligation
//     to whoever now holds the release;
//   - returns inside the `err != nil` branch of the acquisition's own
//     error, where no borrow was taken.
//
// The view must stay local: returning it, storing it into a field,
// global, channel or goroutine is an escape — unless the same
// statement also transfers the release (borrow moves as a pair), or
// the function consults Stable(), the pager's explicit marker that
// views outlive release on this backend. The pairing and escape checks
// track only the directly bound variables of a ReadPage acquisition.
//
// # Read-only views
//
// A mapped file is mapped read-only, so writing through a view of it is
// a SIGSEGV, and on the other backends it corrupts a cached or pooled
// page. The views are the first result of ReadPage
// ([]byte, func(), error), of ReadExtent ([]byte, error), of
// (*btree.Tree).Get, and of any package-local function that returns one
// of these (or a variable holding one) as its first result. A variable
// or struct field assigned a view anywhere in the package holds one
// everywhere in the package — so a field that carries an extent on one
// path (the B+Tree iterator's current value) must never be appended
// into on another. Flagged writes through a holder or a reslice of one:
//
//	v[i] = x          // element assignment (and v[i]++, v[i] += x)
//	copy(v, src)      // copy into it
//	append(v[:k], x)  // append into its capacity
//
// Writes made by a callee the view is passed to are out of scope.
//
// The analyzer identifies ReadPage and ReadExtent by name and result
// shape, Tree.Get by package path and name, and skips _test.go files.
package borrowcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/flow"
)

// Analyzer is the borrowcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "borrowcheck",
	Run: func(pass *analysis.Pass) {
		views := readOnlyViews(pass)
		analysis.ForEachFunc(pass, func(fb analysis.FuncBody) {
			checkFunc(pass, fb)
			checkWrites(pass, fb, views)
		})
	},
}

// btreeTree is the type whose Get method returns read-only values.
const btreeTree = "*repro/internal/btree.Tree"

// checkFunc checks the ReadPage acquisitions directly inside fb's body
// (nested literals are visited as their own FuncBody).
func checkFunc(pass *analysis.Pass, fb analysis.FuncBody) {
	stableExempt := consultsStable(fb.Body)
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // checked as its own function body
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		call := borrowCall(pass, assign)
		if call == nil {
			return true
		}
		view, release, errv := lhsIdent(assign, 0), lhsIdent(assign, 1), lhsIdent(assign, 2)
		if release == nil {
			pass.Reportf(assign.Pos(), "ReadPage release discarded: bind it and call it on every path")
			return true
		}
		relObj := pass.TypesInfo.ObjectOf(release)
		scope, ok := flow.ScopeAfter(fb.Body, assign)
		if !ok {
			return true
		}
		cfg := flow.Config{
			AcquirePos: assign.Pos(),
			Discharges: func(s ast.Stmt) bool {
				return analysis.UsesObject(s, relObj, pass.TypesInfo)
			},
		}
		if errv != nil {
			cfg.ExemptCond = analysis.ErrExemptCond(pass.TypesInfo.ObjectOf(errv), pass.TypesInfo)
		}
		for _, v := range flow.Check(cfg, scope) {
			pass.Reportf(v.Pos, "ReadPage view %s: release not called on %s path (in %s)",
				viewName(view), v.Kind, fb.Name)
		}
		if view != nil && !stableExempt {
			checkEscapes(pass, fb, scope, pass.TypesInfo.ObjectOf(view), relObj)
		}
		return true
	})
}

// viewName names the view variable for diagnostics ("_" when blank).
func viewName(view *ast.Ident) string {
	if view == nil {
		return "_"
	}
	return view.Name
}

// borrowCall returns the ReadPage call when assign is a borrow
// acquisition — a := of three names from a single ReadPage call — else
// nil.
func borrowCall(pass *analysis.Pass, assign *ast.AssignStmt) *ast.CallExpr {
	if assign.Tok != token.DEFINE || len(assign.Rhs) != 1 || len(assign.Lhs) != 3 {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !isReadPage(callee(pass.TypesInfo, call)) {
		return nil
	}
	return call
}

// callee returns the function or method call invokes, or nil for
// builtins, conversions and calls of function values.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isReadPage reports whether fn is a ReadPage with results
// ([]byte, func(), error).
func isReadPage(fn *types.Func) bool {
	if fn == nil || fn.Name() != "ReadPage" {
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	return res.Len() == 3 && isByteSlice(res.At(0).Type()) && isNullarySig(res.At(1).Type()) && analysis.IsError(res.At(2).Type())
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isNullarySig reports whether t is func().
func isNullarySig(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// lhsIdent returns assign.Lhs[i] as a non-blank identifier, or nil.
func lhsIdent(assign *ast.AssignStmt, i int) *ast.Ident {
	if i >= len(assign.Lhs) {
		return nil
	}
	id, ok := assign.Lhs[i].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return id
}

// consultsStable reports whether the body calls a Stable() method —
// the pager's marker that this code knowingly relies on views
// outliving release, which waives the escape checks (not the release
// pairing).
func consultsStable(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stable" && len(call.Args) == 0 {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkEscapes reports view escapes within the acquisition scope: the
// view (or a subslice of it) returned, stored into a non-local sink,
// sent on a channel, or captured by a goroutine — except when the same
// statement also moves the release (the borrow transfers as a pair).
func checkEscapes(pass *analysis.Pass, fb analysis.FuncBody, scope []ast.Stmt, viewObj, relObj types.Object) {
	if viewObj == nil {
		return
	}
	derives := func(e ast.Expr) bool { return derivesFrom(e, viewObj, pass.TypesInfo) }
	for _, s := range scope {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if derives(r) && !analysis.UsesObject(n, relObj, pass.TypesInfo) {
						pass.Reportf(n.Pos(), "ReadPage view %s escapes via return without its release (in %s): copy it or return the release too",
							viewObj.Name(), fb.Name)
					}
				}
			case *ast.AssignStmt:
				if analysis.UsesObject(n, relObj, pass.TypesInfo) {
					return true // borrow transferred as a pair
				}
				for i, r := range n.Rhs {
					if !derives(r) {
						continue
					}
					if sink := storeSink(pass, n.Lhs, i); sink != "" {
						pass.Reportf(n.Pos(), "ReadPage view %s stored into %s (in %s): it is only valid until release; copy it",
							viewObj.Name(), sink, fb.Name)
					}
				}
			case *ast.SendStmt:
				if derives(n.Value) {
					pass.Reportf(n.Pos(), "ReadPage view %s sent on a channel (in %s): the borrow is single-goroutine; copy it",
						viewObj.Name(), fb.Name)
				}
			case *ast.GoStmt:
				if analysis.UsesObject(n.Call, viewObj, pass.TypesInfo) {
					pass.Reportf(n.Pos(), "ReadPage view %s used from a goroutine (in %s): the borrow is single-goroutine; copy it",
						viewObj.Name(), fb.Name)
				}
			}
			return true
		})
	}
}

// storeSink classifies the i-th assignment target (position-matched
// for 1:1 assigns, any target otherwise) and returns a description of
// the sink when it outlives the borrow: a field, element or
// package-level variable. Empty string means a plain local, which is
// fine.
func storeSink(pass *analysis.Pass, lhs []ast.Expr, i int) string {
	target := lhs[0]
	if i < len(lhs) {
		target = lhs[i]
	}
	switch t := target.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return ""
		}
		if analysis.IsPackageLevel(pass.TypesInfo.ObjectOf(t)) {
			return "package-level variable " + t.Name
		}
		return ""
	default:
		if base := analysis.BaseIdent(target); base != nil {
			return "field or element of " + base.Name
		}
		return "a non-local location"
	}
}

// derivesFrom reports whether e is obj or a still-aliasing derivation
// of it: subslices, parens, address-of, or a composite literal holding
// one. Calls are a copy boundary and do not derive.
func derivesFrom(e ast.Expr, obj types.Object, info *types.Info) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(e) == obj
	case *ast.SliceExpr:
		return derivesFrom(e.X, obj, info)
	case *ast.ParenExpr:
		return derivesFrom(e.X, obj, info)
	case *ast.UnaryExpr:
		return e.Op.String() == "&" && derivesFrom(e.X, obj, info)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if derivesFrom(el, obj, info) {
				return true
			}
		}
	}
	return false
}

// views is the package's set of read-only view holders: variables and
// struct fields ever assigned a view, and package-local functions whose
// first result is one.
type views struct {
	info    *types.Info
	holders map[types.Object]bool
}

// readOnlyViews collects the view holders of pass's package. It
// iterates to a fixpoint, because a wrapper is only recognized once
// what it returns is.
func readOnlyViews(pass *analysis.Pass) views {
	v := views{pass.TypesInfo, make(map[types.Object]bool)}
	for grew := true; grew; {
		grew = false
		mark := func(e ast.Expr) {
			if obj := v.object(e); obj != nil && !v.holders[obj] {
				v.holders[obj], grew = true, true
			}
		}
		analysis.ForEachFunc(pass, func(fb analysis.FuncBody) {
			ast.Inspect(fb.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // its own visit
				case *ast.AssignStmt:
					if len(n.Rhs) == 1 && len(n.Lhs) > 1 && v.holds(n.Rhs[0]) {
						mark(n.Lhs[0]) // a view is the first result
					} else if len(n.Rhs) == len(n.Lhs) {
						for i, r := range n.Rhs {
							if v.holds(r) {
								mark(n.Lhs[i])
							}
						}
					}
				case *ast.KeyValueExpr:
					if f, ok := v.object(n.Key).(*types.Var); ok && f.IsField() && v.holds(n.Value) {
						mark(n.Key)
					}
				case *ast.ReturnStmt:
					if fb.Decl != nil && len(n.Results) > 0 && v.holds(n.Results[0]) {
						mark(fb.Decl.Name)
					}
				}
				return true
			})
		})
	}
	return v
}

// object returns the variable, field or function e names, or nil.
func (v views) object(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v.info.ObjectOf(e)
	case *ast.SelectorExpr:
		return v.info.ObjectOf(e.Sel)
	}
	return nil
}

// holds reports whether e is a read-only view: a holder, a reslice of
// one, or a call whose first result is a view.
func (v views) holds(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return v.holders[v.object(e)]
	case *ast.SliceExpr:
		return v.holds(e.X)
	case *ast.CallExpr:
		fn := callee(v.info, e)
		if fn == nil {
			return false
		}
		sig := fn.Type().(*types.Signature)
		res := sig.Results()
		switch {
		case v.holders[fn], isReadPage(fn):
			return true
		case fn.Name() == "ReadExtent":
			return res.Len() == 2 && isByteSlice(res.At(0).Type()) && analysis.IsError(res.At(1).Type())
		case fn.Name() == "Get":
			return sig.Recv() != nil && types.TypeString(sig.Recv().Type(), nil) == btreeTree
		}
	}
	return false
}

// checkWrites reports each write through a read-only view directly
// inside fb's body (nested literals are visited as their own FuncBody).
func checkWrites(pass *analysis.Pass, fb analysis.FuncBody, v views) {
	report := func(at ast.Node, view ast.Expr, how string) {
		pass.Reportf(at.Pos(), "%s writes into %s, a read-only view (in %s): write into a buffer this code owns",
			how, types.ExprString(view), fb.Name)
	}
	element := func(e ast.Expr) {
		if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok && v.holds(ix.X) {
			report(ix, ix.X, "element assignment")
		}
	}
	ast.Inspect(fb.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				element(l)
			}
		case *ast.IncDecStmt:
			element(n.X)
		case *ast.CallExpr:
			id, _ := ast.Unparen(n.Fun).(*ast.Ident)
			b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
			if !ok || len(n.Args) == 0 {
				return true
			}
			switch dst := ast.Unparen(n.Args[0]); b.Name() {
			case "copy":
				if v.holds(dst) {
					report(n, dst, "copy")
				}
			case "append":
				if s, ok := dst.(*ast.SliceExpr); ok && v.holds(s.X) {
					report(n, s.X, "append")
				}
			}
		}
		return true
	})
}
