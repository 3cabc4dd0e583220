package join

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/postings"
	"repro/internal/query"
)

// fuzzQueries are the query shapes FuzzStreamMatchesRun joins: child
// and descendant steps, a chain, twin siblings, and a rare label under
// a frequent one, so the stream both aligns on sparse trees and seeks
// over long gaps.
var fuzzQueries = []string{"A(B)", "A(B)(C)", "A(//B)", "A(B(C))", "B(B)(B)", "C(//A)(B)", "B(//C(A))"}

// fuzzTrees draws the forest FuzzStreamMatchesRun's relations come from:
// tree shapes and labels from an RNG seeded by the recipe, with the
// tree count, the largest tree and how rare label A is read from its
// first bytes. Trees of up to 120 nodes give one tree runs of a
// frequent label longer than the stream's 32-entry window, and a rare A
// leaves gaps of many skip blocks in the frequent labels' lists.
func fuzzTrees(recipe []byte) (nodes [][]fuzzNode) {
	param := func(i int) int {
		if i < len(recipe) {
			return int(recipe[i])
		}
		return 0
	}
	trees := 1 + param(0)*2  // up to 511
	size := 1 + param(1)%120 // nodes in the largest tree
	rareA := 1 + param(2)*4  // about one A per rareA nodes
	h := fnv.New64a()
	h.Write(recipe)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	for range trees {
		n := 1 + rng.Intn(size)
		parent := make([]int, n)
		label := make([]byte, n)
		for v := range n {
			parent[v] = -1
			if v > 0 {
				parent[v] = rng.Intn(v)
			}
			switch {
			case rng.Intn(rareA) == 0:
				label[v] = 'A'
			case rng.Intn(3) == 0:
				label[v] = 'C'
			default:
				label[v] = 'B'
			}
		}
		nodes = append(nodes, numberTree(parent, label))
	}
	return nodes
}

// fuzzNode is one node of a generated tree, numbered as an index
// posting numbers it.
type fuzzNode struct {
	label byte
	ref   postings.NodeRef
}

// numberTree numbers a tree given by parent links (parents first) in
// pre-order with post-order ranks and depths, and returns its nodes in
// pre-order.
func numberTree(parent []int, label []byte) []fuzzNode {
	kids := make([][]int, len(parent))
	for v, p := range parent {
		if p >= 0 {
			kids[p] = append(kids[p], v)
		}
	}
	out := make([]fuzzNode, 0, len(parent))
	post := uint32(0)
	var walk func(v int, level uint32)
	walk = func(v int, level uint32) {
		i := len(out)
		pre := uint32(i)
		out = append(out, fuzzNode{label: label[v], ref: postings.NodeRef{Pre: pre, Level: level}})
		for _, c := range kids[v] {
			walk(c, level+1)
		}
		out[i].ref.Post = post
		post++
	}
	walk(0, 0)
	return out
}

// arrayCursor is a batch cursor over decoded arrays, the shape of the
// core's decoded-list memo: NextBlock copies at most cut entries per
// call, and Skip, when seek is set, binary-searches to the exact first
// entry of the target tree.
type arrayCursor struct {
	tids []uint32
	refs []postings.NodeRef
	pos  int
	cut  int
	seek bool
}

func (c *arrayCursor) NextBlock(tids []uint32, refs []postings.NodeRef) int {
	n := copy(tids[:min(len(tids), c.cut)], c.tids[c.pos:])
	copy(refs[:n], c.refs[c.pos:])
	c.pos += n
	return n
}

func (c *arrayCursor) Skip(target uint32) int {
	if !c.seek {
		return 0
	}
	n, _ := slices.BinarySearch(c.tids[c.pos:], target)
	c.pos += n
	return n
}

func (c *arrayCursor) Err() error { return nil }

// rootListCursor reads a root-split wire list: NextBlock decodes at most
// cut records per call and Skip steps over whole 64-record skip blocks.
type rootListCursor struct {
	it  *postings.RootIterator
	cut int
}

func (c *rootListCursor) NextBlock(tids []uint32, refs []postings.NodeRef) int {
	n := min(len(tids), c.cut)
	return c.it.NextBlock(tids[:n], refs[:n])
}

func (c *rootListCursor) Skip(target uint32) int { return c.it.SkipTo(target) }

func (c *rootListCursor) Err() error { return c.it.Err() }

// fuzzCursor serves one relation through cursor kind kind: a per-entry
// cursor, a batch cursor that cannot seek, one that binary-searches,
// or a root-split wire list with its skip table.
func fuzzCursor(r Relation, kind, cut int) StreamRelation {
	sr := StreamRelation{Name: r.Name, Slots: r.Slots}
	tids := make([]uint32, len(r.Entries))
	refs := make([]postings.NodeRef, len(r.Entries))
	acc := postings.NewRootAccumulator(true)
	for i, e := range r.Entries {
		tids[i], refs[i] = e.TID, e.Nodes[0]
		acc.Add(e.TID, e.Nodes[0])
	}
	switch kind % 4 {
	case 0:
		sr.Cursor = NewSliceCursor(r.Entries)
	case 1, 2:
		sr.Blocks = &arrayCursor{tids: tids, refs: refs, cut: cut, seek: kind%4 == 2}
	default:
		sr.Blocks = &rootListCursor{it: postings.NewRootIterator(acc.Bytes()), cut: cut}
	}
	return sr
}

// FuzzStreamMatchesRun holds the streaming join to the materializing
// one on fuzzer-chosen forests: for a query shape and one single-slot
// relation per query node (every node of the node's label, as a
// root-split piece of one node), Stream's matches are Run's, in order,
// drained or cut at a limit. Four cursor kinds, chosen per relation,
// with fuzzer-chosen batch cuts, feed the stream; its join rows and
// per-relation reads must equal those of a stream over per-entry
// cursors, which cannot seek, so no cursor kind or batch size moves a
// work counter.
func FuzzStreamMatchesRun(f *testing.F) {
	f.Add([]byte{10, 20, 3}, uint8(0), uint8(0x1b), uint8(5), uint16(0))
	f.Add([]byte{200, 119, 150, 7, 9}, uint8(1), uint8(0xe4), uint8(31), uint16(7))
	f.Add([]byte{255, 119, 199, 1}, uint8(6), uint8(0xff), uint8(64), uint16(0))
	f.Add([]byte{40, 90, 0}, uint8(4), uint8(0x39), uint8(1), uint16(3))
	f.Fuzz(func(t *testing.T, recipe []byte, shape, kinds, cut uint8, limit uint16) {
		q := query.MustParse(fuzzQueries[int(shape)%len(fuzzQueries)])
		forest := fuzzTrees(recipe)
		rels := make([]Relation, len(q.Nodes))
		order := make([]int, len(q.Nodes))
		for i, qn := range q.Nodes {
			rels[i] = Relation{Name: fmt.Sprintf("%s#%d", qn.Label, i), Slots: []int{i}}
			for tid, nodes := range forest {
				for _, n := range nodes {
					if string(n.label) == qn.Label {
						rels[i].Entries = append(rels[i].Entries, postings.IntervalEntry{TID: uint32(tid), Nodes: []postings.NodeRef{n.ref}})
					}
				}
			}
			order[i] = i // pre-order: every node's parent comes first
		}
		ctx := context.Background()
		want, _, err := Run(ctx, q, rels, Options{Order: order})
		if err != nil {
			t.Fatal(err)
		}
		bound := int(limit) % 300 // 0: drain
		pull := func(srels []StreamRelation) ([]Match, int, []int) {
			s, err := NewStreamOpts(ctx, q, srels, Options{Order: order})
			if err != nil {
				t.Fatal(err)
			}
			var got []Match
			for bound == 0 || len(got) < bound {
				m, ok := s.Next()
				if !ok {
					break
				}
				got = append(got, m)
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			reads := make([]int, len(srels))
			for i := range reads {
				reads[i] = s.SourceRead(i)
			}
			return got, s.Rows(), reads
		}
		refMs, refRows, refReads := pull(sliceRelations(rels))
		srels := make([]StreamRelation, len(rels))
		for i, r := range rels {
			srels[i] = fuzzCursor(r, int(kinds)>>(2*i), 1+int(cut)%80)
		}
		got, rows, reads := pull(srels)
		if bound > 0 && len(want) > bound {
			want = want[:bound]
		}
		if !slices.Equal(got, want) || !slices.Equal(refMs, want) {
			t.Fatalf("%s over %d trees, limit %d: stream %d matches, per-entry stream %d, Run %d",
				q, len(forest), bound, len(got), len(refMs), len(want))
		}
		if rows != refRows || !slices.Equal(reads, refReads) {
			t.Fatalf("%s, limit %d: %d rows and reads %v, per-entry cursors %d and %v", q, bound, rows, reads, refRows, refReads)
		}
	})
}
