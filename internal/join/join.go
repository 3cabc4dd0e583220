// Package join evaluates decomposed queries over posting lists: the
// paper's join phase (§4.3). Cover pieces become relations whose
// columns are query nodes ("slots"); structural predicates derived from
// the query connect them:
//
//   - equal     — two pieces bind the same query node,
//   - parent    — a Child-axis query edge crosses pieces,
//   - ancestor  — a Descendant-axis (//) query edge crosses components,
//   - distinct  — same-label query siblings must bind different nodes
//     (sibling injectivity, enforceable whenever both are bound).
//
// Relations are combined with sort-merge joins on (tid, pre) in the
// spirit of MPMGJN [Zhang et al., SIGMOD'01], with all applicable
// predicates applied as residuals; every join step runs that one
// merge. Plans are left-deep in exactly the order the planner fixed
// (Options.Order); the package never orders a join itself, and refuses
// an order that is missing, not a permutation of the relations, or not
// connected.
//
// Both entry points execute the same compiled program — Stream (one
// tree at a time) is the driver every query evaluation runs on; Run
// (materialized relations in, all matches out) is the oracle the tests
// hold it to and the driver the benchmark's layer probes time: every
// step's shared and fresh columns and the predicates that become
// checkable are resolved to column indexes once per evaluation
// (program.go), and the steps then run over flat rows in two reused
// buffers, so steady-state evaluation allocates nothing per row or per
// tree. A Stream reads its relations through fixed-size
// windows of flat tids and node records that batch cursors decode into
// directly (BlockCursor, the one contract production cursors
// implement), so stepping over an entry is a compare in a scan, and the
// kernel joins views into the windows without copying them.
package join

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/postings"
	"repro/internal/query"
)

// Relation is one input: the postings of one cover piece. Slots[i]
// names the query node bound by Nodes[i] of each entry, so every entry
// carries exactly len(Slots) nodes. Root-split relations have exactly
// one slot (the piece root); subtree-interval relations bind every
// piece node. Entries must be in ascending tid order, as posting lists
// are; Run rejects a relation that is not.
type Relation struct {
	Name    string                   // for diagnostics: the piece's key
	Slots   []int                    // query node bound by each entry column
	Entries []postings.IntervalEntry // posting rows, (tid, pre)-sorted
}

// Match is one result: the image of the query root in a tree.
type Match struct {
	TID  uint32 `json:"tid"`  // tree identifier
	Root uint32 `json:"root"` // pre number of the query root's image
}

// predKind enumerates structural predicates.
type predKind uint8

const (
	predEqual predKind = iota
	predParent
	predAncestor
	predDistinct
)

type pred struct {
	kind predKind
	u, v int // query nodes; for parent/ancestor, u is the upper node
}

// Options shape one Run or Stream: count-only evaluation skips
// materializing, sorting and returning the match slice altogether;
// Order is the join order the planner fixed.
type Options struct {
	// CountOnly makes Run return only the distinct-match count, with a
	// nil match slice — no per-match allocation happens.
	CountOnly bool
	// Order is the left-deep join order as indexes into the relations:
	// a permutation in which every relation after the first connects to
	// the ones before it (a shared slot or a query edge). It is
	// required — Run and NewStreamOpts return an error for any other
	// order, nil included.
	Order []int
	// NoStack is ignored: every join step runs the same merge.
	//
	// Deprecated: ignored; every step runs the merge. Declared only
	// because bench/layers.go names it.
	NoStack bool
}

// Info reports how one Run executed.
type Info struct {
	// Count is the number of distinct (tid, root) matches.
	Count int
	// Rows measures join work: every relation entry that entered the
	// pipeline plus every intermediate row produced by a join step. The
	// streaming producer reports the same measure, so a limited
	// evaluation that stops early shows strictly fewer rows than the
	// full run of the same query (asserted by tests and benchmarks).
	Rows int
}

// canceller amortizes context checks over hot join loops: the deadline
// is consulted once per 1024 ticks, so cancellation is detected within
// a bounded amount of work without a per-row atomic load.
type canceller struct {
	ctx  context.Context
	tick int
}

// check reports the context's error once it is cancelled; most calls
// return nil without touching the context.
func (c *canceller) check() error {
	c.tick++
	if c.tick&1023 != 0 {
		return nil
	}
	return c.ctx.Err()
}

// Run joins the relations under ctx in the order opt.Order and returns
// the distinct (tid, root image) matches of the query root, plus
// execution Info. Every query node must be bound by at least one
// relation slot *or* be enforceable transitively; the query root must
// be bound. The join is compiled once (see program) and executed over
// flat rows with the relations read in place, so the run allocates per
// buffer growth, never per row. Cancellation is checked on entry and
// periodically inside the join loops, so an expired ctx aborts
// evaluation promptly with ctx.Err(). With Options.CountOnly the match
// slice stays nil and only the count is computed. For incremental
// evaluation that can stop mid-join, use NewStreamOpts instead.
func Run(ctx context.Context, q *query.Query, rels []Relation, opt Options) ([]Match, Info, error) {
	var info Info
	if err := ctx.Err(); err != nil {
		return nil, info, err
	}
	if len(rels) == 0 {
		return nil, info, fmt.Errorf("join: no relations")
	}
	slots := relationSlots(rels)
	if err := validOrder(q, slots, opt.Order); err != nil {
		return nil, info, err
	}
	for _, r := range rels {
		if len(r.Entries) == 0 {
			return nil, info, nil // empty posting list: no matches anywhere
		}
		if len(r.Slots) == 0 {
			return nil, info, fmt.Errorf("join: relation %q has no slots", r.Name)
		}
		info.Rows += len(r.Entries)
	}
	prog, err := compile(q, slots, opt.Order)
	if err != nil {
		return nil, info, err
	}
	inputs, err := borrow(rels)
	if err != nil {
		return nil, info, err
	}

	x := executor{cc: canceller{ctx: ctx}}
	final, rows, err := x.run(prog, inputs)
	info.Rows += rows
	if err != nil || final.len() == 0 {
		return nil, info, err
	}
	out, n := x.project(final, prog.rootCol, nil, opt.CountOnly)
	info.Count = n
	return out, info, nil
}

// borrow wraps the relations as kernel inputs without copying them,
// after checking the two properties the kernel relies on: an entry
// whose node count disagrees with the relation's slots, or tids that
// run backwards, are corrupt input and fail the run.
func borrow(rels []Relation) ([]table, error) {
	inputs := make([]table, len(rels))
	for i, r := range rels {
		last := uint32(0)
		for _, e := range r.Entries {
			if len(e.Nodes) != len(r.Slots) {
				return nil, fmt.Errorf("join: relation %q: entry binds %d nodes, want %d", r.Name, len(e.Nodes), len(r.Slots))
			}
			if e.TID < last {
				return nil, fmt.Errorf("join: relation %q is not tid-sorted", r.Name)
			}
			last = e.TID
		}
		inputs[i] = table{entries: r.Entries, stride: len(r.Slots)}
	}
	return inputs, nil
}

// buildPredicates derives the full predicate set from the query.
func buildPredicates(q *query.Query) []pred {
	var ps []pred
	for v := 1; v < q.Size(); v++ {
		u := q.Nodes[v].Parent
		if q.Nodes[v].Axis == query.Child {
			ps = append(ps, pred{kind: predParent, u: u, v: v})
		} else {
			ps = append(ps, pred{kind: predAncestor, u: u, v: v})
		}
	}
	// Sibling injectivity for same-label siblings.
	for u := 0; u < q.Size(); u++ {
		cs := q.Nodes[u].Children
		for i := 0; i < len(cs); i++ {
			for j := i + 1; j < len(cs); j++ {
				if q.Nodes[cs[i]].Label == q.Nodes[cs[j]].Label {
					ps = append(ps, pred{kind: predDistinct, u: cs[i], v: cs[j]})
				}
			}
		}
	}
	return ps
}

// slotsConnected reports whether a relation's slot set touches the
// bound set: a shared query node, or a query edge between one of its
// slots and a bound node.
func slotsConnected(q *query.Query, slots []int, bound map[int]bool) bool {
	for _, s := range slots {
		if bound[s] {
			return true
		}
		if p := q.Nodes[s].Parent; p >= 0 && bound[p] {
			return true
		}
		for _, c := range q.Nodes[s].Children {
			if bound[c] {
				return true
			}
		}
	}
	return false
}

// relationSlots projects the slot sets out of materialized relations,
// the shape validOrder checks against.
func relationSlots(rels []Relation) [][]int {
	slots := make([][]int, len(rels))
	for i := range rels {
		slots[i] = rels[i].Slots
	}
	return slots
}

// validOrder checks that order can drive a left-deep join over
// relations with the given slot sets: a permutation of them in which
// every relation after the first connects to the already-bound set —
// the invariant the planner's orders carry. Any other order, nil
// included, is an error naming it.
func validOrder(q *query.Query, slots [][]int, order []int) error {
	bad := func() error {
		// A copy, so that order itself does not escape: callers pass
		// literal orders on hot paths.
		return fmt.Errorf("join: order %v is not a connected order of %d relations", slices.Clone(order), len(slots))
	}
	if len(order) != len(slots) || len(order) == 0 {
		return bad()
	}
	seen := make([]bool, len(slots))
	for _, i := range order {
		if i < 0 || i >= len(slots) || seen[i] {
			return bad()
		}
		seen[i] = true
	}
	bound := map[int]bool{}
	for _, s := range slots[order[0]] {
		bound[s] = true
	}
	for _, ri := range order[1:] {
		if !slotsConnected(q, slots[ri], bound) {
			return bad()
		}
		for _, s := range slots[ri] {
			bound[s] = true
		}
	}
	return nil
}
