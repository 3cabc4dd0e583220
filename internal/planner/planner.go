// Package planner is the middle stage of the query pipeline —
// decompose → plan → execute. It compiles a parsed query into a Plan:
// the cover decomposition of internal/cover resolved to index keys
// (the decompose stage the paper's §5 describes), annotated with each
// piece's exact stored posting count (the count prefix of its B+Tree
// value, read through Stats.Count), a cost-based left-deep join order
// (smallest count first, with slot-connectivity tie-breaking), and the
// execution strategy the index's coding implies. Every plan carries
// its join order, and the join layer runs exactly that order: a plan
// compiled without a count source or under the UseSyntacticOrder
// ablation takes the syntactic connected order instead, and a cover
// whose pieces do not connect is rejected here.
//
// A costed root-split plan also widens each piece's key: the piece
// grows, one child-axis query node at a time, toward the superset of at
// most mss nodes with the smallest stored count (see widen). Its root —
// the only slot a root-split relation binds — stays, so the cover, the
// join order's connectivity and the join program are those of minRC;
// only the posting list fetched for each piece gets shorter. A plan
// without a count source or under UseSyntacticOrder skips costing and
// therefore widening: it reads the paper's minRC keys. A root-split
// piece whose root and key repeat an earlier piece's — twin siblings
// widened to one key — is dropped from any root-split plan: it is the
// same relation on the same slot.
package planner

import (
	"fmt"
	"slices"

	"repro/internal/cover"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// UseSyntacticOrder is the planner's ablation switch: when set, New
// skips costing and pins the join order to the syntactic connected
// order — the cover's construction order, which is the identity
// whenever the identity connects. The skewed-corpus
// benchmark flips it to quantify what costing buys; nothing else
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
	// StrategyBlock is never chosen: every join step runs the one merge
	// kernel. Declared only because the frozen benchmark
	// (bench/layers.go) compares Plan.Strategy against it.
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
	// B+Tree key to fetch. On a costed root-split plan the pattern is
	// the cover piece widened to its most selective stored superset
	// (see widen), so it may hold more query nodes than the cover's.
	Key subtree.Key
	// Root is the query node the piece is rooted at; root-split
	// relations bind exactly this slot.
	Root int
	// Slots maps the pattern's canonical pre-order positions to query
	// node indexes, the root first; subtree-interval relations bind all
	// of them.
	Slots []int
	// Perms are the pattern's slot automorphisms (see
	// subtree.SlotAutomorphisms); subtree-interval evaluation expands
	// postings by them when len(Perms) > 1.
	Perms [][]int
	// Est is Key's stored posting count on the segment set the plan
	// was compiled against (tombstones not subtracted); 0 when the plan
	// is uncosted or the key is absent.
	Est uint64
}

// Plan is a compiled query: the parsed query together with its cover
// decomposition under one index configuration (MSS and coding), plus
// the planner's cost annotations. A Plan is immutable after New returns
// and safe to share between goroutines — the live index keeps one
// instance per query on the published segment set (epoch) whose
// counts it was costed under, so a plan never runs on any other.
// All evaluation runs against plan.Query; two textual queries that are
// equal up to sibling order share a plan, which is sound because
// matches expose only the query root's image.
type Plan struct {
	// Query is the parsed query the plan was compiled from.
	Query *query.Query
	// Pieces is the cover decomposition across all child components, in
	// construction order (root-split keys widened on a costed plan, and
	// a root-split piece repeating an earlier one's root and key
	// dropped).
	Pieces []PlanPiece
	// Order is the left-deep join order as indexes into Pieces: a
	// permutation in which every piece after the first is slot-connected
	// to the pieces before it. A costed plan takes the smallest stored
	// count first; an uncosted one the syntactic connected order
	// (see joinOrder). The join runs this order and no other.
	Order []int
	// Strategy is the execution mode the coding implies; set on
	// uncosted plans too.
	Strategy Strategy
	// EstRows is the estimated distinct-match cardinality of the whole
	// join — the smallest piece count, since every match embeds an
	// occurrence of every piece. 0 on uncosted plans.
	EstRows uint64
	// Costed reports whether the plan was compiled with a count source:
	// Est and EstRows are meaningful only when set, and Order is
	// cost-based.
	Costed bool
}

// New decomposes q into cover pieces for an index with the given MSS
// and coding, resolves each piece to its index key, slot mapping and
// automorphisms, and — when stats is non-nil — annotates the pieces
// with their stored counts, widening each root-split piece's key to
// its most selective stored superset first; a Count error fails New.
// It then picks the join order (by cost on a costed plan, syntactically
// otherwise); a cover with no connected order is an error.
func New(q *query.Query, mss int, coding postings.Coding, stats *Stats) (*Plan, error) {
	covers, err := coverQuery(q, mss, coding == postings.RootSplit)
	if err != nil {
		return nil, err
	}
	pl := &Plan{Query: q, Strategy: StrategyStream}
	if coding == postings.FilterBased {
		pl.Strategy = StrategyFilter
	}
	var cs *counts
	if stats != nil && !UseSyntacticOrder {
		cs = &counts{stats: stats, memo: make(map[subtree.Key]uint64)}
	}
	for _, c := range covers {
		for _, p := range c {
			nodes := p.Nodes
			if cs != nil && coding == postings.RootSplit {
				if nodes, err = cs.widen(q, mss, nodes); err != nil {
					return nil, err
				}
			}
			pat, slots, err := q.SubPattern(nodes)
			if err != nil {
				return nil, err
			}
			pp := PlanPiece{Key: pat.Key(), Root: p.Root, Slots: slots}
			if coding == postings.RootSplit && slices.ContainsFunc(pl.Pieces, func(o PlanPiece) bool {
				return o.Root == pp.Root && o.Key == pp.Key
			}) {
				// The same relation bound to the same slot as an earlier
				// piece: joining it again filters nothing.
				continue
			}
			if coding == postings.SubtreeInterval {
				pp.Perms = subtree.SlotAutomorphisms(pat)
			}
			pl.Pieces = append(pl.Pieces, pp)
		}
	}
	if cs != nil {
		if err := pl.cost(cs); err != nil {
			return nil, err
		}
	}
	if pl.Order, err = pl.joinOrder(coding); err != nil {
		return nil, err
	}
	return pl, nil
}

// counts is one New call's memo of stored counts: widening and costing
// share it, so each distinct key — twin pieces' included — is counted
// once per plan.
type counts struct {
	stats *Stats
	memo  map[subtree.Key]uint64
}

// of returns k's stored count, reading it through Stats.Count once.
func (cs *counts) of(k subtree.Key) (uint64, error) {
	if n, ok := cs.memo[k]; ok {
		return n, nil
	}
	n, err := cs.stats.Count(k)
	if err != nil {
		return 0, err
	}
	cs.memo[k] = n
	return n, nil
}

// widen grows a root-split cover piece, given as its query nodes (root
// first), toward its most selective stored key. Each step tries every
// child-axis child of a node already in the piece, in ascending node
// order, and adds the one whose key has the smallest stored count, the
// earlier candidate winning a tie; growth stops at mss nodes, at a
// count of 0 (the query cannot match), or when no candidate is strictly
// cheaper than the current key. The root stays the piece's root, and it
// is the only slot a root-split relation binds, so only the posting
// list changes. That is sound: a match maps any connected child-axis
// set of at most mss query nodes onto a stored subtree occurrence with
// the same root image, so the wider key adds a necessary condition and
// can only drop roots the exact matcher rejects too.
func (cs *counts) widen(q *query.Query, mss int, nodes []int) ([]int, error) {
	key, err := pieceKey(q, nodes)
	if err != nil {
		return nil, err
	}
	est, err := cs.of(key)
	if err != nil {
		return nil, err
	}
	nodes = slices.Clip(nodes) // growing must not write into the cover's slice
	var cands []int
	for len(nodes) < mss && est > 0 {
		cands = cands[:0]
		for _, v := range nodes {
			for _, c := range q.Nodes[v].Children {
				if q.Nodes[c].Axis == query.Child && !slices.Contains(nodes, c) {
					cands = append(cands, c)
				}
			}
		}
		slices.Sort(cands)
		best := -1
		for _, c := range cands {
			key, err := pieceKey(q, append(nodes, c))
			if err != nil {
				return nil, err
			}
			n, err := cs.of(key)
			if err != nil {
				return nil, err
			}
			if n < est {
				best, est = c, n
			}
		}
		if best < 0 {
			break
		}
		nodes = append(nodes, best)
	}
	return nodes, nil
}

// pieceKey returns the key of the pattern q.SubPattern(nodes) builds —
// the connected child-axis node set rooted at its smallest node —
// without building the pattern, for widen keys every candidate it
// tries.
func pieceKey(q *query.Query, nodes []int) (subtree.Key, error) {
	seen := 0
	var key func(u int) (subtree.Key, int)
	key = func(u int) (subtree.Key, int) {
		seen++
		size := 1
		var kids []subtree.Key
		for _, c := range q.Nodes[u].Children {
			if q.Nodes[c].Axis == query.Child && slices.Contains(nodes, c) {
				k, n := key(c)
				kids = append(kids, k)
				size += n
			}
		}
		return subtree.JoinKey(q.Nodes[u].Label, size, kids), size
	}
	k, _ := key(slices.Min(nodes))
	if seen != len(nodes) {
		return "", fmt.Errorf("planner: nodes %v of %s are not one cover piece", nodes, q)
	}
	return k, nil
}

// cost annotates the plan with each piece's stored count.
func (pl *Plan) cost(cs *counts) error {
	pl.Costed = true
	for i := range pl.Pieces {
		est, err := cs.of(pl.Pieces[i].Key)
		if err != nil {
			return err
		}
		pl.Pieces[i].Est = est
		if i == 0 || est < pl.EstRows {
			pl.EstRows = est
		}
	}
	return nil
}

// boundSlots returns the query nodes a piece's relation binds under the
// given coding: root-split postings carry only the piece root — the
// first of Slots, which follows the pattern's pre-order — the other
// codings bind every covered node.
func (pp *PlanPiece) boundSlots(coding postings.Coding) []int {
	if coding == postings.RootSplit {
		return pp.Slots[:1]
	}
	return pp.Slots
}

// joinOrder picks the left-deep join order greedily: a first piece,
// then repeatedly a piece connected to the bound set (a shared slot or
// a query edge into a bound node — the same connectivity rule the join
// layer enforces). A costed plan goes by stored count: the
// globally smallest piece first, then the smallest connected one, ties
// breaking toward the piece sharing more slots with the bound set, then
// toward syntactic position. An uncosted plan takes the syntactic
// connected order: piece 0, then always the lowest-index connected
// piece, which is the identity whenever the identity connects. A cover
// that no order connects is an error.
func (pl *Plan) joinOrder(coding postings.Coding) ([]int, error) {
	n := len(pl.Pieces)
	q := pl.Query
	bound := map[int]bool{}
	order := make([]int, 0, n)

	// sharedWith counts a piece's connections to the bound set: bound
	// slots plus query edges into bound nodes.
	sharedWith := func(i int) int {
		c := 0
		for _, s := range pl.Pieces[i].boundSlots(coding) {
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

	// The first pick has nothing bound yet, so every piece is eligible and
	// shares nothing: it is the smallest estimate, or piece 0 uncosted.
	for len(order) < n {
		best, bestShared := -1, 0
		for i := 0; i < n; i++ {
			if slices.Contains(order, i) {
				continue
			}
			sh := sharedWith(i)
			if sh == 0 && len(order) > 0 {
				continue
			}
			if best == -1 || pl.Costed && (pl.Pieces[i].Est < pl.Pieces[best].Est ||
				(pl.Pieces[i].Est == pl.Pieces[best].Est && sh > bestShared)) {
				best, bestShared = i, sh
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("planner: the cover pieces of %s do not connect", q)
		}
		order = append(order, best)
		for _, s := range pl.Pieces[best].boundSlots(coding) {
			bound[s] = true
		}
	}
	return order, nil
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
