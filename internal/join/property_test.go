package join

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lingtree"
	"repro/internal/match"
	"repro/internal/postings"
	"repro/internal/query"
)

// randomLabeledTree builds a random tree over a small alphabet, so
// random queries match often.
func randomLabeledTree(rng *rand.Rand, tid int, alphabet string) *lingtree.Tree {
	b := lingtree.NewBuilder(tid)
	n := 3 + rng.Intn(20)
	b.Add(lingtree.NoParent, string(alphabet[rng.Intn(len(alphabet))]))
	for v := 1; v < n; v++ {
		b.Add(rng.Intn(v), string(alphabet[rng.Intn(len(alphabet))]))
	}
	return b.Tree()
}

// randomQueryText renders a random query of 1..5 nodes over alphabet
// with both axes.
func randomQueryText(rng *rand.Rand, alphabet string) string {
	n := 1 + rng.Intn(5)
	children := make([][]int, n)
	for v := 1; v < n; v++ {
		p := rng.Intn(v)
		children[p] = append(children[p], v)
	}
	var sb strings.Builder
	var write func(v int)
	write = func(v int) {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		for _, c := range children[v] {
			sb.WriteByte('(')
			if rng.Intn(3) == 0 {
				sb.WriteString("//")
			}
			write(c)
			sb.WriteByte(')')
		}
	}
	write(0)
	return sb.String()
}

func nodeRef(n *lingtree.Node) postings.NodeRef {
	return postings.NodeRef{Pre: uint32(n.Pre), Post: uint32(n.Post), Level: uint32(n.Level)}
}

// randomCover decomposes q into root-split style relations over trees:
// a Child-axis query leaf is folded, with probability one half, into a
// two-node piece with its parent — posting the parent's image wherever
// it has a child of the leaf's label, and binding only the parent, as
// root-split coding does — and every node not covered that way gets a
// singleton piece. Folded leaves are bound by no relation, so for
// queries with same-label siblings the join can over-report (nothing
// keeps a folded sibling's image distinct), the class PR 11's oracle
// documented; for all other queries it must be exact.
func randomCover(rng *rand.Rand, q *query.Query, trees []*lingtree.Tree) []Relation {
	folded := make([]bool, q.Size())
	rooted := make([]bool, q.Size()) // node roots a two-node piece
	for v := 1; v < q.Size(); v++ {
		if len(q.Nodes[v].Children) == 0 && q.Nodes[v].Axis == query.Child && rng.Intn(2) == 0 {
			folded[v], rooted[q.Nodes[v].Parent] = true, true
		}
	}
	var rels []Relation
	for v := 0; v < q.Size(); v++ {
		if folded[v] {
			u := q.Nodes[v].Parent
			rel := Relation{Name: fmt.Sprintf("%s(%s)@%d", q.Nodes[u].Label, q.Nodes[v].Label, u), Slots: []int{u}}
			for _, t := range trees {
				for i := range t.Nodes {
					if t.Nodes[i].Label != q.Nodes[u].Label {
						continue
					}
					for _, c := range t.Nodes[i].Children {
						if t.Nodes[c].Label == q.Nodes[v].Label {
							rel.Entries = append(rel.Entries, postings.IntervalEntry{TID: uint32(t.TID), Nodes: []postings.NodeRef{nodeRef(&t.Nodes[i])}})
							break
						}
					}
				}
			}
			rels = append(rels, rel)
			continue
		}
		if rooted[v] {
			continue
		}
		rel := Relation{Name: fmt.Sprintf("%s@%d", q.Nodes[v].Label, v), Slots: []int{v}}
		for _, t := range trees {
			for i := range t.Nodes {
				if t.Nodes[i].Label == q.Nodes[v].Label {
					rel.Entries = append(rel.Entries, postings.IntervalEntry{TID: uint32(t.TID), Nodes: []postings.NodeRef{nodeRef(&t.Nodes[i])}})
				}
			}
		}
		rels = append(rels, rel)
	}
	return rels
}

// hasSameLabelSiblings reports whether some query node has two children
// with one label.
func hasSameLabelSiblings(q *query.Query) bool {
	for v := range q.Nodes {
		seen := map[string]bool{}
		for _, c := range q.Nodes[v].Children {
			if seen[q.Nodes[c].Label] {
				return true
			}
			seen[q.Nodes[c].Label] = true
		}
	}
	return false
}

// randomValidOrder returns a random join order the kernel will accept:
// a shuffle that connects, or the syntactic connected order when a few
// shuffles find none.
func randomValidOrder(rng *rand.Rand, q *query.Query, rels []Relation) []int {
	for try := 0; try < 20; try++ {
		order := rng.Perm(len(rels))
		if validOrder(q, relationSlots(rels), order) == nil {
			return order
		}
	}
	return syntacticOrder(q, rels)
}

// TestKernelAgreesWithExactMatcher checks the compiled kernel against
// the backtracking matcher of internal/match on random trees, queries
// and covers: equal match lists for queries without same-label
// siblings, a superset for those with — under both join orders (the
// syntactic connected order and a random connected one), from both Run
// and a drained Stream, which must also agree with each other exactly.
func TestKernelAgreesWithExactMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(20120831))
	const alphabet = "ABC"
	exact, superset, matching := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		trees := make([]*lingtree.Tree, 1+rng.Intn(6))
		for i := range trees {
			trees[i] = randomLabeledTree(rng, i, alphabet)
		}
		q := query.MustParse(randomQueryText(rng, alphabet))
		rels := randomCover(rng, q, trees)

		var want []Match
		m := match.New(q)
		for _, tr := range trees {
			for _, root := range m.Roots(tr) {
				want = append(want, Match{TID: uint32(tr.TID), Root: uint32(tr.Nodes[root].Pre)})
			}
		}
		if len(want) > 0 {
			matching++
		}
		empty := false
		for _, r := range rels {
			empty = empty || len(r.Entries) == 0
		}

		var first []Match
		for variant := 0; variant < 2; variant++ {
			opt := Options{Order: syntacticOrder(q, rels)}
			if variant == 1 {
				opt = Options{Order: randomValidOrder(rng, q, rels)}
			}
			name := fmt.Sprintf("trial %d %s variant %d", trial, q, variant)

			got, info, err := Run(context.Background(), q, rels, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if info.Count != len(got) {
				t.Fatalf("%s: Count %d, %d matches", name, info.Count, len(got))
			}
			if variant == 0 {
				first = got
				if hasSameLabelSiblings(q) {
					superset++
					if !containsAll(got, want) {
						t.Fatalf("%s: kernel %v misses exact matches %v", name, got, want)
					}
				} else {
					exact++
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: kernel %v, exact matcher %v", name, got, want)
					}
				}
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: %v, default execution %v", name, got, first)
			}
			opt.CountOnly = true
			if ms, cinfo, err := Run(context.Background(), q, rels, opt); err != nil || ms != nil || cinfo != info {
				t.Fatalf("%s count-only: matches %v info %+v err %v, want nil and %+v", name, ms, cinfo, err, info)
			}
			opt.CountOnly = false
			if empty {
				continue // the stream's own empty-source short-circuit is covered elsewhere
			}
			s, err := NewStreamOpts(context.Background(), q, sliceRelations(rels), opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if streamed := drain(t, s); !reflect.DeepEqual(streamed, got) {
				t.Fatalf("%s: stream %v, Run %v", name, streamed, got)
			}
		}
	}
	if exact < 100 || superset < 20 || matching < 100 {
		t.Fatalf("fixture drifted: %d exact-class and %d superset-class queries, %d with matches", exact, superset, matching)
	}
}

// containsAll reports whether sorted match list got includes every
// element of sorted list want.
func containsAll(got, want []Match) bool {
	i := 0
	for _, w := range want {
		for i < len(got) && (got[i].TID < w.TID || (got[i].TID == w.TID && got[i].Root < w.Root)) {
			i++
		}
		if i == len(got) || got[i] != w {
			return false
		}
	}
	return true
}
