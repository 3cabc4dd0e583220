// Package planner is the middle stage of the query pipeline —
// decompose → plan → execute. It compiles a parsed query into a Plan:
// the cover decomposition of internal/cover resolved to index keys
// (the decompose stage the paper's §5 describes), annotated with
// per-piece cardinality estimates from build-time posting statistics,
// a cost-based left-deep join order (smallest estimate first, with
// slot-connectivity tie-breaking), and the execution strategy the
// index's coding implies. Execution layers honor the order but remain
// correct without it: a plan compiled without statistics (an index
// whose manifest predates stats) degrades to the join layer's
// runtime-size ordering.
package planner

import (
	"repro/internal/cover"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// UseSyntacticOrder is the planner's ablation switch: when set, New
// pins the join order to the cover's construction (syntactic) order and
// skips cost-based ordering. The skewed-corpus
// benchmark flips it to quantify what the statistics buy; nothing else
// should.
var UseSyntacticOrder bool

// Strategy is the execution mode a query runs under. Every plan
// evaluates as one drained match stream, so the coding alone decides
// it.
type Strategy uint8

// Execution strategies.
const (
	// StrategyFilter is the filter-and-validate path of filter-based
	// coding (postings carry no node references to join on).
	StrategyFilter Strategy = iota + 1
	// StrategyBlock is never chosen: the join kernel decides merge vs.
	// Stack-Tree per step on its own. Declared only because the frozen
	// benchmark (bench/layers.go) compares Plan.Strategy against it.
	StrategyBlock
	// StrategyStream joins incrementally, one tree at a time, without
	// materializing relations — the root-split and subtree-interval
	// codings' path.
	StrategyStream
)

// String names the strategy as surfaced in SearchStats and explain
// output.
func (s Strategy) String() string {
	switch s {
	case StrategyFilter:
		return "filter"
	case StrategyBlock:
		return "block"
	case StrategyStream:
		return "stream"
	default:
		return ""
	}
}

// PlanPiece is one cover piece of a compiled plan: the index key whose
// posting list the piece reads, plus everything needed to turn that
// list into a join relation without revisiting the query.
type PlanPiece struct {
	// Key is the canonical flattened form of the piece's pattern — the
	// B+Tree key to fetch.
	Key subtree.Key
	// Root is the query node the piece is rooted at; root-split
	// relations bind exactly this slot.
	Root int
	// Slots maps the pattern's canonical pre-order positions to query
	// node indexes; subtree-interval relations bind all of them.
	Slots []int
	// Perms are the pattern's slot automorphisms (see
	// subtree.SlotAutomorphisms); subtree-interval evaluation expands
	// postings by them when len(Perms) > 1.
	Perms [][]int
	// Est is the planner's estimated posting-entry count for Key under
	// the statistics the plan was compiled against; 0 when the plan is
	// uncosted.
	Est uint64
}

// Plan is a compiled query: the parsed query together with its cover
// decomposition under one index configuration (MSS and coding), plus
// the planner's cost annotations. A Plan is immutable after New returns
// and safe to share between goroutines — the live index keeps one
// instance per query on the published segment set (epoch) whose
// statistics it was costed under, so a plan never runs on any other.
// All evaluation runs against plan.Query; two textual queries that are
// equal up to sibling order share a plan, which is sound because
// matches expose only the query root's image.
type Plan struct {
	// Query is the parsed query the plan was compiled from.
	Query *query.Query
	// Pieces is the cover decomposition across all child components, in
	// construction order.
	Pieces []PlanPiece
	// Order is the chosen left-deep join order as indexes into Pieces:
	// smallest estimated cardinality first, each subsequent piece
	// slot-connected to the bound set. nil on uncosted plans, where
	// execution falls back to runtime-size ordering.
	Order []int
	// Strategy is the execution mode the coding implies; set on
	// uncosted plans too.
	Strategy Strategy
	// EstRows is the estimated distinct-match cardinality of the whole
	// join — the smallest piece estimate, since every match embeds an
	// occurrence of every piece. 0 on uncosted plans.
	EstRows uint64
	// Costed reports whether statistics were available: Est, Order and
	// EstRows are meaningful only when set.
	Costed bool
}

// New decomposes q into cover pieces for an index with the given MSS
// and coding, resolves each piece to its index key, slot mapping and
// automorphisms, and — when stats is non-nil — annotates the pieces
// with cardinality estimates and picks the join order. stats == nil
// yields an uncosted plan, whose join order the join layer works out at
// run time.
func New(q *query.Query, mss int, coding postings.Coding, stats *Stats) (*Plan, error) {
	covers, err := coverQuery(q, mss, coding == postings.RootSplit)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Query: q, Strategy: StrategyStream}
	if coding == postings.FilterBased {
		pl.Strategy = StrategyFilter
	}
	for _, c := range covers {
		for _, p := range c {
			pat, slots, err := q.SubPattern(p.Nodes)
			if err != nil {
				return nil, err
			}
			pp := PlanPiece{Key: pat.Key(), Root: p.Root, Slots: slots}
			if coding == postings.SubtreeInterval {
				pp.Perms = subtree.SlotAutomorphisms(pat)
			}
			pl.Pieces = append(pl.Pieces, pp)
		}
	}
	if UseSyntacticOrder {
		// Ablation baseline: pin the syntactic order so execution cannot
		// reorder at runtime.
		pl.Order = identityOrder(len(pl.Pieces))
		return pl, nil
	}
	if stats == nil {
		return pl, nil
	}
	pl.cost(coding, stats)
	return pl, nil
}

// cost annotates the plan with estimates and order.
func (pl *Plan) cost(coding postings.Coding, stats *Stats) {
	pl.Costed = true
	min := uint64(0)
	for i := range pl.Pieces {
		est := stats.Estimate(string(pl.Pieces[i].Key))
		pl.Pieces[i].Est = est
		if i == 0 || est < min {
			min = est
		}
	}
	pl.EstRows = min
	pl.Order = pl.costOrder(coding)
}

// identityOrder returns 0..n-1.
func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// boundSlots returns the query nodes a piece's relation binds under the
// given coding: root-split postings carry only the piece root, the
// other codings bind every covered node.
func (pp *PlanPiece) boundSlots(coding postings.Coding) []int {
	if coding == postings.RootSplit {
		return []int{pp.Root}
	}
	return pp.Slots
}

// costOrder picks the left-deep join order by estimated cardinality:
// the globally smallest piece first, then repeatedly the smallest piece
// connected to the bound set (a shared slot or a query edge into a
// bound node — the same connectivity rule the join layer enforces).
// Ties break toward the piece sharing more slots with the bound set,
// then toward syntactic position, so the order is deterministic.
func (pl *Plan) costOrder(coding postings.Coding) []int {
	n := len(pl.Pieces)
	if n == 0 {
		return nil
	}
	q := pl.Query
	used := make([]bool, n)
	bound := map[int]bool{}
	order := make([]int, 0, n)

	slots := make([][]int, n)
	for i := range pl.Pieces {
		slots[i] = pl.Pieces[i].boundSlots(coding)
	}
	take := func(i int) {
		used[i] = true
		order = append(order, i)
		for _, s := range slots[i] {
			bound[s] = true
		}
	}
	// sharedWith counts a piece's connections to the bound set: bound
	// slots plus query edges into bound nodes.
	sharedWith := func(i int) int {
		c := 0
		for _, s := range slots[i] {
			if bound[s] {
				c++
				continue
			}
			if p := q.Nodes[s].Parent; p >= 0 && bound[p] {
				c++
				continue
			}
			for _, ch := range q.Nodes[s].Children {
				if bound[ch] {
					c++
					break
				}
			}
		}
		return c
	}

	smallest := 0
	for i := 1; i < n; i++ {
		if pl.Pieces[i].Est < pl.Pieces[smallest].Est {
			smallest = i
		}
	}
	take(smallest)
	for len(order) < n {
		best, bestShared := -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			sh := sharedWith(i)
			if sh == 0 {
				continue
			}
			if best == -1 || pl.Pieces[i].Est < pl.Pieces[best].Est ||
				(pl.Pieces[i].Est == pl.Pieces[best].Est && sh > bestShared) {
				best, bestShared = i, sh
			}
		}
		if best == -1 {
			// Disconnected cover: surrender the order and let the join
			// layer report it (or handle it) at execution time.
			return nil
		}
		take(best)
	}
	return order
}

// coverQuery computes per-component covers with the decomposition
// algorithm matching the index coding.
//
// Root-split coding needs extra care around // edges: a //-parent u is
// only constrainable through pieces *rooted at u* (root-split postings
// carry no interior slots, so a piece covering u from above binds a
// possibly different instance of u's label — a false-positive source).
// Every node on the path from the component root to a //-parent is
// therefore forced to be a piece root: the component is split at these
// marked nodes and minRC runs per sub-component. Consecutive marked
// roots join with parent predicates, so all constraints on a marked
// node apply to one binding.
func coverQuery(q *query.Query, mss int, rootSplit bool) ([]cover.Cover, error) {
	var out []cover.Cover
	for _, cr := range q.ComponentRoots() {
		comp := q.ChildComponent(cr)
		if !rootSplit {
			c, err := cover.Optimal(q, comp, mss)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
			continue
		}
		marked := markedRootPath(q, comp, cr)
		var c cover.Cover
		for _, sub := range splitAtMarked(q, comp, cr, marked) {
			sc, err := cover.MinRootSplit(q, sub, mss)
			if err != nil {
				return nil, err
			}
			c = append(c, sc...)
		}
		out = append(out, c)
	}
	return out, nil
}

// markedRootPath returns the set of component nodes lying on a path
// from the component root to any //-edge parent (empty for //-free
// components).
func markedRootPath(q *query.Query, comp []int, cr int) map[int]bool {
	inComp := make(map[int]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	marked := map[int]bool{}
	for _, v := range comp {
		hasDescChild := false
		for _, ch := range q.Nodes[v].Children {
			if q.Nodes[ch].Axis == query.Descendant {
				hasDescChild = true
				break
			}
		}
		if !hasDescChild {
			continue
		}
		for u := v; ; u = q.Nodes[u].Parent {
			marked[u] = true
			if u == cr || !inComp[u] {
				break
			}
		}
	}
	return marked
}

// splitAtMarked partitions the component into sub-components, one per
// marked node plus (if unmarked) the component root, each holding its
// root and the unmarked descendants reachable without crossing another
// marked node. With no marked nodes the whole component is returned.
func splitAtMarked(q *query.Query, comp []int, cr int, marked map[int]bool) [][]int {
	if len(marked) == 0 {
		return [][]int{comp}
	}
	inComp := make(map[int]bool, len(comp))
	for _, v := range comp {
		inComp[v] = true
	}
	var subs [][]int
	var gather func(v int) []int
	gather = func(v int) []int {
		sub := []int{v}
		var walk func(u int)
		walk = func(u int) {
			for _, ch := range q.Nodes[u].Children {
				if q.Nodes[ch].Axis != query.Child || !inComp[ch] {
					continue
				}
				if marked[ch] {
					continue // starts its own sub-component
				}
				sub = append(sub, ch)
				walk(ch)
			}
		}
		walk(v)
		return sub
	}
	// The component root always roots a sub-component; every marked
	// node roots one too (the root may itself be marked).
	roots := []int{cr}
	for _, v := range comp {
		if marked[v] && v != cr {
			roots = append(roots, v)
		}
	}
	for _, r := range roots {
		subs = append(subs, gather(r))
	}
	return subs
}
