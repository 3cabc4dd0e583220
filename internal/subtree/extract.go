package subtree

import (
	"repro/internal/lingtree"
)

// Extractor enumerates every connected subtree of sizes 1..mss of a
// data tree together with its canonical key and slot mapping — the
// index builder's extraction phase (paper §4.2). It works bottom-up:
// the key of an instance rooted at v is v's ⟨size, label⟩ token
// followed by its chosen child instances' keys, stable-sorted, which
// is exactly what canonicalize computes top-down. Keys and slot
// mappings live in arenas the Extractor owns and reuses from tree to
// tree, so extraction allocates nothing per instance. The zero value
// is ready to use; an Extractor is not safe for concurrent use.
type Extractor struct {
	keys  []byte     // key bytes of every instance of the current tree
	slots []int      // slot mappings of every instance, back to back
	insts []instance // instances, grouped by root and then by size
	spans []int      // spans[v*(mss+1)+m-1] is the first instance of (v, m); +mss ends v's
	pick  []int      // the chosen child instances, in child order
	order []int      // pick, stable-sorted by key
	mss   int
}

// instance locates one subtree instance in the Extractor's arenas.
type instance struct {
	key, keyEnd int // e.keys[key:keyEnd]
	slot, size  int // e.slots[slot : slot+size]
}

// Extract calls fn once per connected subtree of t with 1..mss nodes:
// key is the canonical flattened key (as Pattern.Key would render it),
// root the instance's root node and slots its nodes in canonical-key
// pre-order (slots[0] == root), the slot mapping subtree-interval
// postings record. Instances arrive by root ascending, then size
// ascending, then in EnumerateRooted's order; twins with equal keys
// keep document order. key and slots are borrowed from the Extractor
// and valid only until fn returns.
func (e *Extractor) Extract(t *lingtree.Tree, mss int, fn func(key []byte, root int, slots []int)) {
	n := len(t.Nodes)
	e.mss = mss
	e.keys, e.slots, e.insts = e.keys[:0], e.slots[:0], e.insts[:0]
	if cap(e.spans) < n*(mss+1) {
		e.spans = make([]int, n*(mss+1))
	}
	e.spans = e.spans[:n*(mss+1)]
	// Reverse pre-order visits every child before its parent.
	for v := n - 1; v >= 0; v-- {
		nd := &t.Nodes[v]
		base := v * (mss + 1)
		e.spans[base] = len(e.insts)
		e.add(v, 1, nd.Label)
		for m := 2; m <= mss; m++ {
			e.spans[base+m-1] = len(e.insts)
			e.forests(v, m, nd, 0, m-1)
		}
		e.spans[base+mss] = len(e.insts)
	}
	for v := 0; v < n; v++ {
		base := v * (mss + 1)
		for _, in := range e.insts[e.spans[base]:e.spans[base+mss]] {
			fn(e.keys[in.key:in.keyEnd:in.keyEnd], v, e.slots[in.slot:in.slot+in.size:in.slot+in.size])
		}
	}
}

// forests adds v's size-m instances that pick child instances from
// nd.Children[i:] summing to rem nodes, in enumerateForests' order:
// every combination skipping child i first, then child i with each
// size and each of its instances of that size (none when the size
// exceeds the child's subtree).
func (e *Extractor) forests(v, m int, nd *lingtree.Node, i, rem int) {
	if rem == 0 {
		e.add(v, m, nd.Label)
		return
	}
	if i == len(nd.Children) {
		return
	}
	e.forests(v, m, nd, i+1, rem)
	c := nd.Children[i]
	for s := 1; s <= rem; s++ {
		first := c*(e.mss+1) + s - 1
		for k := e.spans[first]; k < e.spans[first+1]; k++ {
			e.pick = append(e.pick, k)
			e.forests(v, m, nd, i+1, rem-s)
			e.pick = e.pick[:len(e.pick)-1]
		}
	}
}

// add appends the size-m instance rooted at v over the child instances
// in e.pick: children stable-sorted by key (insertion sort, as
// sort.Slice does on so few elements), the key v's token plus each
// child key, the slots v plus each child's slots.
func (e *Extractor) add(v, m int, label string) {
	e.order = append(e.order[:0], e.pick...)
	for i := 1; i < len(e.order); i++ {
		for j := i; j > 0 && e.less(e.order[j], e.order[j-1]); j-- {
			e.order[j], e.order[j-1] = e.order[j-1], e.order[j]
		}
	}
	in := instance{key: len(e.keys), slot: len(e.slots), size: m}
	e.keys = appendToken(e.keys, m, label)
	e.slots = append(e.slots, v)
	for _, k := range e.order {
		c := e.insts[k]
		e.keys = append(e.keys, ' ')
		e.keys = append(e.keys, e.keys[c.key:c.keyEnd]...)
		e.slots = append(e.slots, e.slots[c.slot:c.slot+c.size]...)
	}
	in.keyEnd = len(e.keys)
	e.insts = append(e.insts, in)
}

// less orders instances a and b by key.
func (e *Extractor) less(a, b int) bool {
	x, y := e.insts[a], e.insts[b]
	return string(e.keys[x.key:x.keyEnd]) < string(e.keys[y.key:y.keyEnd])
}
