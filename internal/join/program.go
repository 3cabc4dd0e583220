package join

import (
	"fmt"
	"slices"

	"repro/internal/postings"
	"repro/internal/query"
)

// This file is the execution core shared by Run and Stream: a join is
// compiled once per evaluation into a program — the left-deep order
// with every per-step decision resolved to column indexes — and the
// program is then executed over flat rows. Nothing in the per-row or
// per-tree path looks a query node up in a map, re-derives which
// predicates apply, or allocates.

// cpred is a structural predicate with its operands resolved to row
// columns; for parent/ancestor, u is the upper node's column.
type cpred struct {
	kind predKind
	u, v int
}

// step joins one more relation into the rows. The result row is the
// input row followed by the relation's fresh slots.
type step struct {
	rel    int      // relation joined in, as an index into the inputs
	stride int      // width of the result rows
	shared [][2]int // (relation slot, row column) pairs that must bind the same node
	fresh  []int    // relation slots appended as new columns
	active []cpred  // predicates that first become checkable on the result rows

	// A pure structural step — no shared slots, a parent/ancestor edge
	// crossing the two sides — runs as a Stack-Tree join instead of the
	// per-tree nested loop; the fields below describe that form.
	stack    bool
	ancRows  bool    // the edge's upper node is on the row side
	parent   bool    // the driving edge is a Child axis: levels must be adjacent
	rowCol   int     // driving node's column in the input rows
	relCol   int     // driving node's slot in the relation
	residual []cpred // active minus the driving edge
}

// program is one compiled join.
type program struct {
	first   int // relation the rows start out as
	steps   []step
	rootCol int // column of the query root in the final rows
}

// compile resolves the left-deep join of relations with the given slot
// sets, taken in order, against q's predicates. It performs exactly the
// bookkeeping the executor used to redo per step and per tree: which
// slots of each relation are already bound (shared) or new (fresh),
// which predicates have both operands bound for the first time, and
// whether the step qualifies for the Stack-Tree pass. noStack (see
// Options.NoStack) and DisableStackJoin are read here, once.
func compile(q *query.Query, slots [][]int, order []int, noStack bool) (*program, error) {
	preds := buildPredicates(q)
	useStack := !noStack && !DisableStackJoin

	col := make([]int, q.Size())     // query node → row column, -1 while unbound
	boundAt := make([]int, q.Size()) // position in order that bound the node
	for i := range col {
		col[i], boundAt[i] = -1, -1
	}
	width := 0
	for _, s := range slots[order[0]] {
		col[s], boundAt[s] = width, 0
		width++
	}

	prog := &program{first: order[0], steps: make([]step, 0, len(order)-1)}
	for k := 1; k < len(order); k++ {
		st := step{rel: order[k]}
		for i, s := range slots[st.rel] {
			if boundAt[s] >= 0 && boundAt[s] < k {
				st.shared = append(st.shared, [2]int{i, col[s]})
				continue
			}
			col[s], boundAt[s] = width, k
			width++
			st.fresh = append(st.fresh, i)
		}
		st.stride = width
		for _, p := range preds {
			if col[p.u] >= 0 && col[p.v] >= 0 && (boundAt[p.u] == k || boundAt[p.v] == k) {
				st.active = append(st.active, cpred{kind: p.kind, u: col[p.u], v: col[p.v]})
			}
		}
		if useStack && len(st.shared) == 0 {
			st.chooseDriver(preds, col, boundAt, slots[st.rel], k)
		}
		prog.steps = append(prog.steps, st)
	}
	prog.rootCol = col[q.Root()]
	if prog.rootCol < 0 {
		return nil, fmt.Errorf("join: query root is not bound by any relation")
	}
	return prog, nil
}

// chooseDriver makes step k a Stack-Tree step when some active
// parent/ancestor predicate has one operand bound by the rows and the
// other only by the relation; the first such predicate drives the pass
// and the remaining active ones become residuals.
func (st *step) chooseDriver(preds []pred, col, boundAt []int, relSlots []int, k int) {
	for _, p := range preds {
		if p.kind != predParent && p.kind != predAncestor {
			continue
		}
		if col[p.u] < 0 || col[p.v] < 0 {
			continue
		}
		switch {
		case boundAt[p.u] < k && boundAt[p.v] == k:
			st.ancRows, st.rowCol, st.relCol = true, col[p.u], slotIndex(relSlots, p.v)
		case boundAt[p.v] < k && boundAt[p.u] == k:
			st.ancRows, st.rowCol, st.relCol = false, col[p.v], slotIndex(relSlots, p.u)
		default:
			continue
		}
		st.stack = true
		st.parent = p.kind == predParent
		driver := cpred{kind: p.kind, u: col[p.u], v: col[p.v]}
		for _, a := range st.active {
			if a != driver {
				st.residual = append(st.residual, a)
			}
		}
		return
	}
}

func slotIndex(slots []int, node int) int {
	for i, s := range slots {
		if s == node {
			return i
		}
	}
	return -1
}

// table is a set of rows, each binding stride node records in one
// tree. Everything the kernel produces or buffers is in flat form: row
// i is refs[i*stride:(i+1)*stride] in tree tids[i]. A materialized
// relation handed to Run is instead borrowed as it is (entries), so a
// run copies no input it does not join. Either way tids are
// non-decreasing — inputs are checked on the way in (posting lists are
// tid-ordered) and every join step preserves the order — and every row
// has exactly stride records.
type table struct {
	tids   []uint32
	refs   []postings.NodeRef
	stride int

	entries []postings.IntervalEntry // non-nil: a borrowed relation, tids/refs unused
}

func (t *table) len() int {
	if t.entries != nil {
		return len(t.entries)
	}
	return len(t.tids)
}

// tid returns row i's tree.
func (t *table) tid(i int) uint32 {
	if t.entries != nil {
		return t.entries[i].TID
	}
	return t.tids[i]
}

// row returns row i's node records.
func (t *table) row(i int) []postings.NodeRef {
	if t.entries != nil {
		return t.entries[i].Nodes
	}
	return t.refs[i*t.stride : (i+1)*t.stride]
}

// reset empties the table for rows of the given width, keeping its
// backing arrays.
func (t *table) reset(stride int) {
	t.tids, t.refs, t.stride = t.tids[:0], t.refs[:0], stride
}

// executor owns the mutable state of one evaluation: the two row
// buffers steps alternate between and the scratch of the Stack-Tree
// pass and the root projection. Run uses one for its single pass;
// Stream keeps one for its lifetime, so after the first few trees a
// block joins without allocating.
type executor struct {
	cc  canceller
	buf [2]table

	ancPerm, descPerm []int   // visiting orders of unsorted Stack-Tree sides
	stack             []group // open ancestors of the Stack-Tree pass
	keys              []uint64
}

// run executes prog over the inputs and returns the final rows — which
// alias an input or one of the executor's buffers, valid until the next
// run — and the number of intermediate rows the steps produced. An
// empty intermediate result ends the run early.
func (x *executor) run(prog *program, inputs []table) (*table, int, error) {
	cur := &inputs[prog.first]
	rows := 0
	for k := range prog.steps {
		st := &prog.steps[k]
		out := &x.buf[k&1]
		out.reset(st.stride)
		var err error
		if st.stack {
			err = x.stackJoin(st, cur, &inputs[st.rel], out)
		} else {
			err = x.mergeJoin(st, cur, &inputs[st.rel], out)
		}
		if err != nil {
			return nil, rows, err
		}
		rows += out.len()
		cur = out
		if out.len() == 0 {
			break
		}
	}
	return cur, rows, nil
}

// emit appends the combination of row and the relation entry ent to out
// if it satisfies preds.
func (st *step) emit(out *table, tid uint32, row, ent []postings.NodeRef, preds []cpred) {
	base := len(out.refs)
	out.refs = append(out.refs, row...)
	for _, s := range st.fresh {
		out.refs = append(out.refs, ent[s])
	}
	if !satisfies(out.refs[base:], preds) {
		out.refs = out.refs[:base]
		return
	}
	out.tids = append(out.tids, tid)
}

// mergeJoin is the general step: both sides are tid-ordered, so it
// merges them tree by tree and, within a tree, pairs every row with
// every relation entry that agrees on the shared slots and satisfies
// the newly checkable predicates.
func (x *executor) mergeJoin(st *step, cur, rel, out *table) error {
	nC, nR := cur.len(), rel.len()
	i, j := 0, 0
	for i < nC && j < nR {
		tid := cur.tid(i)
		switch rtid := rel.tid(j); {
		case tid < rtid:
			i++
			continue
		case tid > rtid:
			j++
			continue
		}
		i2, j2 := i+1, j+1
		for i2 < nC && cur.tid(i2) == tid {
			i2++
		}
		for j2 < nR && rel.tid(j2) == tid {
			j2++
		}
		for a := i; a < i2; a++ {
			row := cur.row(a)
			for b := j; b < j2; b++ {
				if err := x.cc.check(); err != nil {
					return err
				}
				ent := rel.row(b)
				if sharedEqual(row, ent, st.shared) {
					st.emit(out, tid, row, ent, st.active)
				}
			}
		}
		i, j = i2, j2
	}
	return nil
}

func sharedEqual(row, ent []postings.NodeRef, shared [][2]int) bool {
	for _, s := range shared {
		if row[s[1]].Pre != ent[s[0]].Pre {
			return false
		}
	}
	return true
}

func satisfies(row []postings.NodeRef, preds []cpred) bool {
	for _, p := range preds {
		u, v := &row[p.u], &row[p.v]
		switch p.kind {
		case predParent:
			if !(u.Pre < v.Pre && u.Post > v.Post && v.Level == u.Level+1) {
				return false
			}
		case predAncestor:
			if !(u.Pre < v.Pre && u.Post > v.Post) {
				return false
			}
		case predDistinct:
			if u.Pre == v.Pre {
				return false
			}
		case predEqual:
			if u.Pre != v.Pre {
				return false
			}
		}
	}
	return true
}

// project reduces the final rows to the distinct (tid, root image)
// pairs in ascending order, appended to dst; with countOnly it only
// counts them. Rows arrive tid-ordered and a tree's rows are few, so
// the packed keys are almost always already sorted or nearly so; they
// are sorted only when the scan finds them out of order, then
// deduplicated in place — no map sized to the row count.
func (x *executor) project(t *table, rootCol int, dst []Match, countOnly bool) ([]Match, int) {
	keys := x.keys[:0]
	sorted := true
	prev := uint64(0)
	for i, n := 0, t.len(); i < n; i++ {
		k := uint64(t.tid(i))<<32 | uint64(t.row(i)[rootCol].Pre)
		if k < prev {
			sorted = false
		}
		prev = k
		keys = append(keys, k)
	}
	if !sorted {
		slices.Sort(keys)
	}
	keys = slices.Compact(keys)
	x.keys = keys
	if countOnly {
		return dst, len(keys)
	}
	dst = slices.Grow(dst, len(keys))
	for _, k := range keys {
		dst = append(dst, Match{TID: uint32(k >> 32), Root: uint32(k)})
	}
	return dst, len(keys)
}
