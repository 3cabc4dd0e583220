package subtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/corpusgen"
	"repro/internal/lingtree"
)

func TestEnumerateRootedChain(t *testing.T) {
	// Unary chain of height 4: exactly one subtree of each size 1..4
	// rooted at the top (paper: n-m+1 subtrees of size m in a chain of
	// n nodes, over all roots).
	tr := lingtree.MustParse(0, "(A (B (C (D))))")
	for m := 1; m <= 4; m++ {
		subs := EnumerateRooted(tr, 0, m)
		if len(subs) != 1 {
			t.Errorf("chain: %d subtrees of size %d at root, want 1", len(subs), m)
		}
	}
	if subs := EnumerateRooted(tr, 0, 5); len(subs) != 0 {
		t.Errorf("chain: size-5 subtrees exist in 4-node tree: %v", subs)
	}
}

func TestEnumerateRootedStar(t *testing.T) {
	// Root with 4 leaf children: C(4, m-1) subtrees of size m at root.
	tr := lingtree.MustParse(0, "(A (B) (C) (D) (E))")
	wants := map[int]int{1: 1, 2: 4, 3: 6, 4: 4, 5: 1}
	for m, want := range wants {
		if got := len(EnumerateRooted(tr, 0, m)); got != want {
			t.Errorf("star: %d subtrees of size %d, want %d", got, m, want)
		}
	}
}

func TestEnumerateMatchesPaperExample(t *testing.T) {
	// Figure 4: the input tree has 8 keys of size 4 and 7 of size 5
	// (as instances counted per unique key). The figure's input is
	// A(C(A)(B), B?, ...) — reconstructing exactly is unnecessary; we
	// assert the C(n-1, m-1) and chain bounds hold on random trees in
	// the quick test below instead. Here: Figure 4(b,c) counts unique
	// keys of size 2 and 3 for A(C(A)(B))(D(C)). Constructed to have
	// distinct shapes.
	tr := lingtree.MustParse(0, "(A (C (A) (B)) (D (C)))")
	keys := map[Key]struct{}{}
	for _, o := range collect(&Extractor{}, tr, 3) {
		keys[o.Key] = struct{}{}
	}
	// Count unique keys of each size.
	bySize := map[int]int{}
	for k := range keys {
		p, err := ParseKey(k)
		if err != nil {
			t.Fatal(err)
		}
		bySize[p.Size()]++
	}
	// Size-1 keys: labels A, B, C, D -> 4 unique.
	if bySize[1] != 4 {
		t.Errorf("unique size-1 keys = %d, want 4", bySize[1])
	}
	// Size-2 keys: A(C), C(A), C(B), A(D), D(C) -> 5 unique.
	if bySize[2] != 5 {
		t.Errorf("unique size-2 keys = %d, want 5", bySize[2])
	}
	// Size-3: A(C)(D), A(C(A)), A(C(B)), A(D(C)), C(A)(B), D... = let's
	// enumerate: rooted at A: {A,C,D}, {A,C,D? no—size 3 combos:
	// A+C+D, A+C+(C's child A), A+C+(C's child B), A+D+(D's child C)};
	// rooted at C(top): {C,A,B}; rooted at D: none of size 3 besides
	// D(C)+? D has one child C (leaf) -> max size 2.
	// Unique keys: A(C)(D), A(C(A)), A(C(B)), A(D(C)), C(A)(B) -> 5.
	if bySize[3] != 5 {
		t.Errorf("unique size-3 keys = %d, want 5", bySize[3])
	}
}

func TestCountMatchesEnumerate(t *testing.T) {
	g := corpusgen.New(3)
	for _, tr := range g.Trees(25) {
		for v := 0; v < tr.Size(); v += 7 {
			for m := 1; m <= 5; m++ {
				want := int64(len(EnumerateRooted(tr, v, m)))
				if got := CountRooted(tr, v, m); got != want {
					t.Fatalf("tree %d node %d size %d: count %d, enumerate %d",
						tr.TID, v, m, got, want)
				}
			}
		}
	}
}

func TestEnumerateProducesValidConnectedSets(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%25) + 1
		tr := randomLingTree(rng, n)
		for m := 1; m <= 4; m++ {
			seen := map[string]bool{}
			for v := 0; v < tr.Size(); v++ {
				for _, nodes := range EnumerateRooted(tr, v, m) {
					if len(nodes) != m {
						return false
					}
					if nodes[0] != v {
						return false
					}
					// InducedPattern validates connectivity.
					if _, _, err := InducedPattern(tr, nodes); err != nil {
						t.Logf("disconnected: %v", err)
						return false
					}
					// No duplicate node sets.
					sig := ""
					for _, x := range nodes {
						sig += string(rune(x)) + ","
					}
					if seen[sig] {
						t.Logf("duplicate set %v", nodes)
						return false
					}
					seen[sig] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func randomLingTree(rng *rand.Rand, n int) *lingtree.Tree {
	labels := []string{"A", "B", "C", "D"}
	b := lingtree.NewBuilder(0)
	b.Add(lingtree.NoParent, labels[rng.Intn(len(labels))])
	for i := 1; i < n; i++ {
		b.Add(rng.Intn(i), labels[rng.Intn(len(labels))])
	}
	return b.Tree()
}

func TestExtractOccurrences(t *testing.T) {
	tr := lingtree.MustParse(0, "(NP (DT a) (NN))")
	occs := collect(&Extractor{}, tr, 2)
	// Size 1: NP, DT, a, NN -> 4. Size 2: NP(DT), NP(NN), DT(a) -> 3.
	if len(occs) != 7 {
		t.Fatalf("got %d occurrences, want 7", len(occs))
	}
	byKey := map[Key]int{}
	for _, o := range occs {
		byKey[o.Key]++
		if o.Nodes[0] != o.Root {
			t.Errorf("occurrence root %d != slot 0 %d", o.Root, o.Nodes[0])
		}
	}
	if byKey[P("NP", P("DT")).Key()] != 1 {
		t.Errorf("NP(DT) occurrences: %v", byKey)
	}
	if byKey[P("DT", P("a")).Key()] != 1 {
		t.Errorf("DT(a) occurrences: %v", byKey)
	}
}

func TestExtractSymmetricInstances(t *testing.T) {
	// NP with three NN children: NP - NP(NN) must yield 3 instances of
	// the same key (Lemma 1(iii)'s counterexample).
	b := lingtree.NewBuilder(0)
	np := b.Add(lingtree.NoParent, "NP")
	b.Add(np, "NN")
	b.Add(np, "NN")
	b.Add(np, "NN")
	tr := b.Tree()
	occs := collect(&Extractor{}, tr, 2)
	key := P("NP", P("NN")).Key()
	count := 0
	for _, o := range occs {
		if o.Key == key {
			count++
		}
	}
	if count != 3 {
		t.Errorf("NP(NN) instances = %d, want 3", count)
	}
}

func BenchmarkExtractMSS3(b *testing.B) { benchmarkExtract(b, 3) }

func BenchmarkExtractMSS5(b *testing.B) { benchmarkExtract(b, 5) }

// benchmarkExtract times one reused Extractor over a fixed tree set and
// reports ns per extracted instance. The warm-up pass sizes the
// Extractor's arenas for every tree, so the timed loop allocates
// nothing.
func benchmarkExtract(b *testing.B, mss int) {
	trees := corpusgen.New(1).Trees(50)
	var e Extractor
	occs := 0
	count := func([]byte, int, []int) { occs++ }
	for _, t := range trees {
		e.Extract(t, mss, count)
	}
	occs = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Extract(trees[i%len(trees)], mss, count)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(occs), "ns/occ")
}
