// Package flow is the path engine shared by the silint analyzers that
// enforce acquire/release pairing (borrowcheck's view/release borrows,
// epochpin's epoch pins). It answers one question about Go's
// *structured* control flow: starting from an acquisition statement,
// can control leave the acquisition's scope — via return, break,
// continue, fallthrough, or falling off the end of the innermost
// block — while the obligation is still live?
//
// The engine is deliberately syntactic and conservative-accepting
// rather than a full CFG/SSA analysis (the x/tools machinery those
// would need is not an available dependency):
//
//   - It interprets if/else, for, range, switch, type switch and
//     select precisely, tracking a two-state released/unreleased
//     lattice per path, iterated to a fixpoint through loop bodies.
//   - Any statement the caller's Discharges hook matches (a release
//     call, a defer, an ownership transfer) flips the path to
//     released.
//   - Branches the caller's ExemptCond hook classifies as the
//     acquisition-failure test (the `err != nil` idiom) carry no
//     obligation.
//   - Statements that cannot return (panic, os.Exit, log.Fatal*,
//     testing fatalities) end the path without requiring a release.
//   - goto and labeled statements make the engine give up on the
//     function (no findings): unstructured flow is rare in this
//     codebase and silence is safer than a false positive.
//
// Obligations are block-scoped by construction: the analyzers only
// track `:=`-bound acquisitions, so the release value cannot be
// referenced outside the innermost statement list containing the
// acquisition, and leaving that list unreleased is a definite leak.
package flow

import (
	"go/ast"
	"go/token"
)

// Kind classifies how a leaking path leaves the acquisition scope.
type Kind int

// The ways control can exit an acquisition scope with the obligation
// still live.
const (
	// LeakReturn is a return statement on an unreleased path.
	LeakReturn Kind = iota
	// LeakBreak is a break out of the scope on an unreleased path.
	LeakBreak
	// LeakContinue is a continue past the acquisition on an
	// unreleased path (the next iteration re-acquires; this one is
	// lost).
	LeakContinue
	// LeakFallthrough is a switch fallthrough leaving the scope
	// unreleased.
	LeakFallthrough
	// LeakScopeEnd is control falling off the end of the innermost
	// block holding the acquisition, after which the release value is
	// out of scope.
	LeakScopeEnd
)

// String names the leak kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case LeakReturn:
		return "return"
	case LeakBreak:
		return "break"
	case LeakContinue:
		return "continue"
	case LeakFallthrough:
		return "fallthrough"
	default:
		return "end of scope"
	}
}

// A Violation is one path that leaves the acquisition scope with the
// obligation live: where it leaves, and how.
type Violation struct {
	// Pos is the exiting statement (or the acquisition itself for
	// LeakScopeEnd).
	Pos token.Pos
	// Kind says how the path exits.
	Kind Kind
}

// Config parameterizes a Check run with the analyzer-specific parts of
// the contract.
type Config struct {
	// AcquirePos anchors LeakScopeEnd violations.
	AcquirePos token.Pos
	// Discharges reports whether executing stmt discharges the
	// obligation: a release call, a defer of one, or an ownership
	// transfer. It is consulted for leaf statements and for return
	// statements (a return that transfers the obligation is not a
	// leak).
	Discharges func(stmt ast.Stmt) bool
	// ExemptCond classifies an if condition with respect to the
	// acquisition's failure test: +1 when the true branch is the
	// failure path (obligation void there), -1 for the false branch,
	// 0 when unrelated. Nil means no exemption.
	ExemptCond func(cond ast.Expr) int
}

// st is the path-state lattice: a bitmask over released/unreleased.
type st uint8

const (
	stReleased st = 1 << iota
	stLive
)

// Check evaluates the statements of the acquisition scope (those
// following the acquisition in its innermost statement list) and
// returns every distinct way the obligation can leak. A nil result
// means every path discharges — or the engine hit unstructured flow
// and gave up.
func Check(cfg Config, scope []ast.Stmt) []Violation {
	c := &checker{cfg: cfg}
	out := c.evalList(scope, stLive, nil, nil)
	if c.bailed {
		return nil
	}
	if out&stLive != 0 {
		c.leak(cfg.AcquirePos, LeakScopeEnd)
	}
	return dedup(c.vio)
}

// checker carries one Check run: the hooks, the violations found so
// far, and the give-up flag for unstructured flow.
type checker struct {
	cfg    Config
	vio    []Violation
	bailed bool
}

// leak records one leaking exit.
func (c *checker) leak(pos token.Pos, k Kind) {
	c.vio = append(c.vio, Violation{Pos: pos, Kind: k})
}

// evalList folds the path state through a statement list, returning
// the states with which control can fall off its end (0 = it cannot).
// brk and cont collect the states reaching bare break/continue for the
// innermost enclosing breakable/continuable construct inside the
// scope; nil means such an exit leaves the scope.
func (c *checker) evalList(list []ast.Stmt, in st, brk, cont *st) st {
	cur := in
	for _, s := range list {
		if cur == 0 || c.bailed {
			return 0
		}
		cur = c.evalStmt(s, cur, brk, cont)
	}
	return cur
}

// evalStmt evaluates one statement, returning the fall-through states.
func (c *checker) evalStmt(s ast.Stmt, in st, brk, cont *st) st {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.evalList(s.List, in, brk, cont)

	case *ast.IfStmt:
		in = c.evalLeaf(s.Init, in)
		thenIn, elseIn := in, in
		if c.cfg.ExemptCond != nil {
			switch c.cfg.ExemptCond(s.Cond) {
			case 1:
				thenIn = stReleased
			case -1:
				elseIn = stReleased
			}
		}
		out := c.evalStmt(s.Body, thenIn, brk, cont)
		if s.Else != nil {
			out |= c.evalStmt(s.Else, elseIn, brk, cont)
		} else {
			out |= elseIn
		}
		return out

	case *ast.ForStmt:
		return c.evalLoop(s.Body, c.evalLeaf(s.Init, in), s.Cond == nil)

	case *ast.RangeStmt:
		return c.evalLoop(s.Body, in, false)

	case *ast.SwitchStmt:
		return c.evalClauses(s.Body, c.evalLeaf(s.Init, in), cont, !hasDefault(s.Body))
	case *ast.TypeSwitchStmt:
		return c.evalClauses(s.Body, c.evalLeaf(s.Init, in), cont, !hasDefault(s.Body))
	case *ast.SelectStmt:
		// A select without default blocks until some clause runs, so
		// the no-clause fall-through does not apply.
		return c.evalClauses(s.Body, in, cont, false)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK, token.CONTINUE:
			target, kind := brk, LeakBreak
			if s.Tok == token.CONTINUE {
				target, kind = cont, LeakContinue
			}
			switch {
			case s.Label != nil:
				c.bailed = true
			case target != nil:
				*target |= in
			case in&stLive != 0:
				c.leak(s.Pos(), kind)
			}
			return 0
		case token.FALLTHROUGH:
			// Treated as leaving the clause: the next clause's body is
			// evaluated with the plain entry state anyway, so just
			// require the obligation to be settled here.
			if in&stLive != 0 {
				c.leak(s.Pos(), LeakFallthrough)
			}
			return 0
		default: // goto
			c.bailed = true
			return 0
		}

	case *ast.ReturnStmt:
		if c.cfg.Discharges(s) {
			return 0
		}
		if in&stLive != 0 {
			c.leak(s.Pos(), LeakReturn)
		}
		return 0

	case *ast.LabeledStmt:
		c.bailed = true
		return 0

	default:
		return c.evalLeaf(s, in)
	}
}

// evalLoop evaluates a loop body to fixpoint on the two-state lattice
// and returns the states with which control can pass the loop.
func (c *checker) evalLoop(body *ast.BlockStmt, in st, infinite bool) st {
	cur := in
	var brk st
	var bodyOut, cont st
	for range 3 { // lattice of 2 bits: 3 passes always reach fixpoint
		var b, ct st
		out := c.evalList(body.List, cur, &b, &ct)
		brk |= b
		cont |= ct
		bodyOut |= out
		next := in | bodyOut | cont
		if next == cur {
			break
		}
		cur = next
	}
	if infinite {
		return brk
	}
	return in | brk | bodyOut | cont
}

// evalClauses evaluates switch/select case bodies, collecting bare
// breaks (which target the switch, not an enclosing loop). mayskip
// adds the entry state to the result for an expression switch with no
// default clause.
func (c *checker) evalClauses(body *ast.BlockStmt, in st, cont *st, mayskip bool) st {
	var out, swBrk st
	for _, cl := range body.List {
		clauseIn := in
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			clauseIn = c.evalLeaf(cl.Comm, clauseIn)
			stmts = cl.Body
		}
		out |= c.evalList(stmts, clauseIn, &swBrk, cont)
	}
	if mayskip {
		out |= in
	}
	return out | swBrk
}

// hasDefault reports whether a switch body contains a default clause.
func hasDefault(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// evalLeaf evaluates a non-control statement (or an absent init
// clause, a no-op): a discharge flips the path to released, a
// guaranteed-panicking call ends it.
func (c *checker) evalLeaf(s ast.Stmt, in st) st {
	if s == nil {
		return in
	}
	if c.cfg.Discharges(s) {
		return stReleased
	}
	if terminates(s) {
		return 0
	}
	return in
}

// terminates reports whether stmt is a call that never returns: panic
// or one of the conventional process/test aborts.
func terminates(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "FailNow":
			return true
		}
	}
	return false
}

// dedup removes repeated (pos, kind) violations produced by the loop
// fixpoint's repeated body passes.
func dedup(v []Violation) []Violation {
	seen := make(map[Violation]bool, len(v))
	out := v[:0]
	for _, x := range v {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ScopeAfter locates the innermost statement list containing acquire
// within body and returns the statements after it — the acquisition
// scope Check evaluates. The second result is false when acquire is
// not directly in any statement list (for example, an if-statement
// init clause), in which case the caller should skip the check.
func ScopeAfter(body *ast.BlockStmt, acquire ast.Stmt) ([]ast.Stmt, bool) {
	var found []ast.Stmt
	var ok bool
	ast.Inspect(body, func(n ast.Node) bool {
		if ok || n == nil {
			return false
		}
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, s := range list {
			if s == acquire {
				found, ok = list[i+1:], true
				return false
			}
		}
		return true
	})
	return found, ok
}
