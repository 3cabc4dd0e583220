package join

import (
	"cmp"
	"slices"
)

// DisableStackJoin switches every step back to the block-nested merge;
// the ablation benchmark flips it to quantify the stack-based join's
// benefit (the paper's §7 future-work item of adopting Stack-Tree-style
// structural joins [Al-Khalifa et al., ICDE'02] over the (tid,
// pre)-sorted streams). It is read when a join is compiled — once per
// Run or Stream — not per step.
var DisableStackJoin bool

// group is one level of the Stack-Tree pass's stack: the ancestor-side
// items bound to one tree node. Distinct intermediate rows routinely
// bind the same ancestor node, and the nesting-chain argument only
// holds for distinct intervals, so items on one node open and close
// together. They are the contiguous run [lo, hi) of the ancestor side's
// visiting order, so a group costs no allocation.
type group struct {
	tid, pre, post uint32
	lo, hi         int
}

// contains reports whether the group's node is a proper ancestor of the
// node (pre, post) of tree tid.
func (g *group) contains(tid, pre, post uint32) bool {
	return g.tid == tid && g.pre < pre && g.post > post
}

// insertionSortMax is the side length up to which an unsorted
// Stack-Tree side is ordered by insertion sort: a streamed block holds
// one tree's rows, almost always fewer than this.
const insertionSortMax = 16

// nodeOrder returns the order in which to visit t's rows so that the
// nodes in column col come in (tid, pre) order: nil when the rows
// already are in that order — always so for a root-split relation, and
// checked in O(n) for everything else — otherwise a permutation built
// in scratch.
func nodeOrder(t *table, col int, scratch *[]int) []int {
	n := t.len()
	key := func(i int) (uint32, uint32) { return t.tid(i), t.row(i)[col].Pre }
	less := func(a, b int) bool {
		ta, pa := key(a)
		tb, pb := key(b)
		return ta < tb || (ta == tb && pa < pb)
	}
	sorted := true
	for i := 1; i < n; i++ {
		if less(i, i-1) {
			sorted = false
			break
		}
	}
	if sorted {
		return nil
	}
	perm := (*scratch)[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, i)
	}
	*scratch = perm
	if n <= insertionSortMax {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && less(perm[j], perm[j-1]); j-- {
				perm[j], perm[j-1] = perm[j-1], perm[j]
			}
		}
		return perm
	}
	slices.SortFunc(perm, func(a, b int) int {
		ta, pa := key(a)
		tb, pb := key(b)
		if c := cmp.Compare(ta, tb); c != 0 {
			return c
		}
		return cmp.Compare(pa, pb)
	})
	return perm
}

// stackJoin implements the Stack-Tree structural join for a step whose
// driving predicate is a parent/ancestor edge between a node of the
// rows and a node of the relation: both sides are visited in (tid, pre)
// order of the driving node; a single pass maintains the stack of
// currently-open ancestors and emits every (ancestor, descendant) pair,
// O(|A| + |D| + |output|) instead of the merge's per-tree nested loops.
// Residual predicates are applied to each emitted row. Sides already in
// order — the usual case — are walked in place; the stack and the
// permutations of unsorted sides live in the executor and are reused.
func (x *executor) stackJoin(st *step, cur, rel, out *table) error {
	anc, ancCol, desc, descCol := rel, st.relCol, cur, st.rowCol
	if st.ancRows {
		anc, ancCol, desc, descCol = cur, st.rowCol, rel, st.relCol
	}
	ancPerm := nodeOrder(anc, ancCol, &x.ancPerm)
	descPerm := nodeOrder(desc, descCol, &x.descPerm)
	at := func(perm []int, i int) int {
		if perm != nil {
			return perm[i]
		}
		return i
	}

	stack := x.stack[:0]
	nA, i := anc.len(), 0
	for j, nD := 0, desc.len(); j < nD; j++ {
		if err := x.cc.check(); err != nil {
			return err
		}
		di := at(descPerm, j)
		dtid := desc.tid(di)
		d := desc.row(di)[descCol]

		// Open every ancestor node that starts before d in d's tree;
		// ancestors in earlier trees can contain nothing still to come.
		for i < nA {
			ai := at(ancPerm, i)
			atid := anc.tid(ai)
			if atid < dtid {
				i++
				continue
			}
			a := anc.row(ai)[ancCol]
			if atid > dtid || a.Pre >= d.Pre {
				break
			}
			hi := i + 1
			for hi < nA {
				bi := at(ancPerm, hi)
				if anc.tid(bi) != atid || anc.row(bi)[ancCol].Pre != a.Pre {
					break
				}
				hi++
			}
			for len(stack) > 0 && !stack[len(stack)-1].contains(atid, a.Pre, a.Post) {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, group{tid: atid, pre: a.Pre, post: a.Post, lo: i, hi: hi})
			i = hi
		}
		// Close the nodes that do not contain d; the remainder is the
		// nesting chain of d's open ancestors.
		for len(stack) > 0 && !stack[len(stack)-1].contains(dtid, d.Pre, d.Post) {
			stack = stack[:len(stack)-1]
		}
		for _, g := range stack {
			for p := g.lo; p < g.hi; p++ {
				if err := x.cc.check(); err != nil {
					return err
				}
				ai := at(ancPerm, p)
				if st.parent && d.Level != anc.row(ai)[ancCol].Level+1 {
					continue
				}
				if st.ancRows {
					st.emit(out, dtid, cur.row(ai), rel.row(di), st.residual)
				} else {
					st.emit(out, dtid, cur.row(di), rel.row(ai), st.residual)
				}
			}
		}
	}
	x.stack = stack
	return nil
}
