package planner

import (
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/corpusgen"
	"repro/internal/lingtree"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
	"repro/internal/workload"
)

// benchmarkQueries is the paper's 48 WH queries and one 70-query FB set
// cut from held-out trees of the corpus generator.
func benchmarkQueries(t *testing.T) []*query.Query {
	t.Helper()
	var qs []*query.Query
	wh := workload.WHQuerySet()
	for _, g := range workload.WHGroups {
		qs = append(qs, wh[g]...)
	}
	gen := corpusgen.New(2012)
	held := make([]*lingtree.Tree, 300)
	for i := range held {
		held[i] = gen.Tree(1<<20 + i)
	}
	fb := workload.FBQuerySet(workload.NewLabelClassifier(gen.Trees(1000)), held, 2012)
	for _, cls := range workload.FBClasses {
		qs = append(qs, fb[cls]...)
	}
	if len(qs) < 100 {
		t.Fatalf("only %d benchmark queries", len(qs))
	}
	return qs
}

// hashedStats counts every key at a pseudo-random number derived from
// its text, so cost-based orders start and branch at varied pieces.
func hashedStats() *Stats {
	return &Stats{Count: func(k subtree.Key) (uint64, error) {
		h := fnv.New64a()
		h.Write([]byte(k))
		return h.Sum64()%10000 + 1, nil
	}}
}

// connects reports whether order is a permutation of the plan's pieces
// in which every piece after the first shares a slot or a query edge
// with the pieces before it, as the join requires.
func connects(pl *Plan, coding postings.Coding, order []int) bool {
	if len(order) != len(pl.Pieces) {
		return false
	}
	seen := make([]bool, len(order))
	bound := map[int]bool{}
	for k, pi := range order {
		if pi < 0 || pi >= len(order) || seen[pi] {
			return false
		}
		seen[pi] = true
		linked := k == 0
		for _, s := range pl.Pieces[pi].boundSlots(coding) {
			n := pl.Query.Nodes[s]
			linked = linked || bound[s] || n.Parent >= 0 && bound[n.Parent] ||
				slices.ContainsFunc(n.Children, func(c int) bool { return bound[c] })
		}
		if !linked {
			return false
		}
		for _, s := range pl.Pieces[pi].boundSlots(coding) {
			bound[s] = true
		}
	}
	return true
}

// TestEveryPlanCarriesAConnectedOrder holds New to the join's contract on
// the benchmark's queries, for every coding and MSS, costed, uncosted and
// under the UseSyntacticOrder ablation: Order is always a connected
// permutation of the pieces; uncosted and ablation plans share one order,
// the syntactic connected order, which is the identity whenever the
// identity connects. It also pins what boundSlots relies on: a piece's
// root is the first of its slots.
func TestEveryPlanCarriesAConnectedOrder(t *testing.T) {
	defer func() { UseSyntacticOrder = false }()
	qs := benchmarkQueries(t)
	disconnectedIdentity := 0
	for _, coding := range []postings.Coding{postings.RootSplit, postings.SubtreeInterval, postings.FilterBased} {
		for _, mss := range []int{1, 3} {
			uncosted := make([]*Plan, len(qs))
			for i, q := range qs {
				pl, err := New(q, mss, coding, nil)
				if err != nil {
					t.Fatalf("%v mss=%d %s: %v", coding, mss, q, err)
				}
				for _, pp := range pl.Pieces {
					if pp.Slots[0] != pp.Root {
						t.Fatalf("%v mss=%d %s: piece %s has slots %v, root %d first", coding, mss, q, pp.Key, pp.Slots, pp.Root)
					}
				}
				uncosted[i] = pl
			}
			stats := hashedStats()
			for i, q := range qs {
				costed, err := New(q, mss, coding, stats)
				if err != nil {
					t.Fatalf("%v mss=%d %s costed: %v", coding, mss, q, err)
				}
				UseSyntacticOrder = true
				ablation, err := New(q, mss, coding, stats)
				UseSyntacticOrder = false
				if err != nil {
					t.Fatalf("%v mss=%d %s ablation: %v", coding, mss, q, err)
				}
				name := func(mode string) string { return coding.String() + " " + q.String() + " " + mode }
				for mode, pl := range map[string]*Plan{"costed": costed, "uncosted": uncosted[i], "ablation": ablation} {
					if !connects(pl, coding, pl.Order) {
						t.Fatalf("%s mss=%d: order %v is not a connected permutation of %d pieces", name(mode), mss, pl.Order, len(pl.Pieces))
					}
				}
				if !costed.Costed || ablation.Costed || uncosted[i].Costed {
					t.Fatalf("%s mss=%d: Costed is %v/%v/%v, want costed only with stats and no ablation", name(""), mss, costed.Costed, uncosted[i].Costed, ablation.Costed)
				}
				if !slices.Equal(ablation.Order, uncosted[i].Order) {
					t.Fatalf("%s mss=%d: ablation order %v, uncosted %v", name(""), mss, ablation.Order, uncosted[i].Order)
				}
				identity := make([]int, len(ablation.Pieces))
				for k := range identity {
					identity[k] = k
				}
				if !connects(ablation, coding, identity) {
					disconnectedIdentity++
				} else if !slices.Equal(ablation.Order, identity) {
					t.Fatalf("%s mss=%d: the identity connects, ablation order %v", name("ablation"), mss, ablation.Order)
				}
			}
		}
	}
	t.Logf("%d plans whose identity order does not connect", disconnectedIdentity)
}

// TestPieceKeyMatchesSubPattern holds widen's key builder to the
// pattern path it skips: on the benchmark's queries, for every
// connected child-axis node set of up to four nodes, pieceKey equals
// the Key of SubPattern's pattern.
func TestPieceKeyMatchesSubPattern(t *testing.T) {
	checked := 0
	for _, q := range benchmarkQueries(t) {
		var grow func(nodes []int)
		grow = func(nodes []int) {
			pat, _, err := q.SubPattern(nodes)
			if err != nil {
				t.Fatalf("%s %v: %v", q, nodes, err)
			}
			got, err := pieceKey(q, nodes)
			if err != nil || got != pat.Key() {
				t.Fatalf("%s %v: pieceKey %q, %v; SubPattern key %q", q, nodes, got, err, pat.Key())
			}
			checked++
			if len(nodes) == 4 {
				return
			}
			for _, v := range nodes {
				for _, c := range q.Nodes[v].Children {
					// Growing in ascending node order visits every
					// connected set once: a node's parent precedes it.
					if q.Nodes[c].Axis == query.Child && c > nodes[len(nodes)-1] {
						grow(append(slices.Clip(nodes), c))
					}
				}
			}
		}
		for v := range q.Nodes {
			grow([]int{v})
		}
	}
	if _, err := pieceKey(mustParse(t, "A(B)(//C)"), []int{0, 2}); err == nil {
		t.Fatal("pieceKey keyed a set crossing a // edge")
	}
	t.Logf("%d node sets keyed", checked)
}
