package corpusgen

import (
	"testing"

	"repro/internal/lingtree"
)

func TestDeterministicAndRandomAccess(t *testing.T) {
	g1 := New(42)
	g2 := New(42)
	// Generate out of order; tree i must not depend on generation order.
	a := g1.Tree(5).String()
	_ = g1.Tree(0)
	b := g2.Tree(5).String()
	if a != b {
		t.Errorf("tree 5 differs across generators:\n%s\n%s", a, b)
	}
	if New(43).Tree(5).String() == a {
		t.Error("different seeds produced identical trees")
	}
	if g1.Tree(6).String() == a {
		t.Error("consecutive trees are identical")
	}
}

func TestGeneratedTreesValid(t *testing.T) {
	g := New(1)
	for _, tr := range g.Trees(200) {
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %d invalid: %v\n%s", tr.TID, err, tr)
		}
		if tr.Nodes[0].Label != "ROOT" {
			t.Fatalf("tree %d root label %q", tr.TID, tr.Nodes[0].Label)
		}
	}
}

func TestGrammarClosure(t *testing.T) {
	g := newsGrammar()
	v := newVocabularies()
	for lhs, rules := range g {
		if len(rules) == 0 {
			t.Errorf("%s has no rules", lhs)
			continue
		}
		for _, r := range rules {
			if r.weight <= 0 {
				t.Errorf("%s has non-positive weight %v", lhs, r.weight)
			}
			if len(r.rhs) == 0 {
				t.Errorf("%s has empty RHS", lhs)
			}
			for _, s := range r.rhs {
				_, isNT := g[s]
				_, isPT := v[s]
				if !isNT && !isPT {
					t.Errorf("%s -> ... %s: symbol is neither nonterminal nor preterminal", lhs, s)
				}
			}
		}
	}
	// Fallback (first) alternatives must terminate: follow them
	// transitively and require no nonterminal repeats on a path.
	var walk func(sym string, onPath map[string]bool)
	walk = func(sym string, onPath map[string]bool) {
		rules, ok := g[sym]
		if !ok {
			return // preterminal
		}
		if onPath[sym] {
			t.Fatalf("fallback cycle through %s", sym)
		}
		onPath[sym] = true
		for _, s := range rules[0].rhs {
			walk(s, onPath)
		}
		delete(onPath, sym)
	}
	for lhs := range g {
		walk(lhs, map[string]bool{})
	}
}

// TestCorpusShape asserts the structural statistics the paper reports
// for its parsed news corpus, on which the synthetic corpus's standing
// in for it rests.
func TestCorpusShape(t *testing.T) {
	g := New(7)
	st := lingtree.NewStats()
	for _, tr := range g.Trees(2000) {
		st.Observe(tr)
	}
	if ab := st.AvgBranching(); ab < 1.3 || ab > 1.9 {
		t.Errorf("avg branching = %.3f, want ~1.5 (paper: 1.52)", ab)
	}
	if st.MaxBranch > 12 {
		t.Errorf("max branching = %d, want rare/none above ~10", st.MaxBranch)
	}
	if sz := st.AvgTreeSize(); sz < 20 || sz > 200 {
		t.Errorf("avg tree size = %.1f nodes, want news-sentence scale", sz)
	}
	// Branching >10 must be a vanishing fraction of internal nodes.
	over10 := 0
	for b := 11; b < len(st.BranchHist); b++ {
		over10 += st.BranchHist[b]
	}
	if frac := float64(over10) / float64(st.InternalNodes); frac > 0.001 {
		t.Errorf("fraction of internal nodes with branching >10 = %v", frac)
	}
	// Word frequencies must be skewed: the most frequent determiner
	// ("the") should dominate its class.
	if st.LabelFrequency["the"] <= st.LabelFrequency["these"] {
		t.Errorf("Zipf skew missing: freq(the)=%d freq(these)=%d",
			st.LabelFrequency["the"], st.LabelFrequency["these"])
	}
}

func TestDepthBounded(t *testing.T) {
	g := New(99)
	st := lingtree.NewStats()
	for _, tr := range g.Trees(500) {
		st.Observe(tr)
	}
	// The fallback closure can extend a constant number of levels past
	// the recursion limit (longest chain: SBAR -> S -> VP -> NP -> DT ->
	// word), so depth stays bounded regardless of corpus size.
	if st.MaxDepth > DefaultMaxDepth+8 {
		t.Errorf("max depth = %d, want <= %d", st.MaxDepth, DefaultMaxDepth+8)
	}
}

func BenchmarkGenerateTree(b *testing.B) {
	g := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Tree(i)
	}
}
