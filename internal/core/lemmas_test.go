package core

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"repro/internal/corpusgen"
	"repro/internal/lingtree"
	"repro/internal/postings"
	"repro/internal/subtree"
)

// These tests execute the paper's §5.1 monotonicity results (Lemmata 1
// and 2) against real indexes: they are what makes max-covers safe for
// filter-based and root-split codings but not for subtree-interval.

// rawPostings returns the posting payload of a key in a single-leaf
// index.
func rawPostings(t *testing.T, l *Live, k subtree.Key) []byte {
	t.Helper()
	val, found, err := l.cur.Load().set.leaves[0].tree.Get([]byte(k))
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		return nil
	}
	_, n := binary.Uvarint(val)
	return val[n:]
}

// TestLemma1FilterSubset: for s1 ⊑ s2, the filter posting list of s2 is
// a subset of s1's. Checked for every (root label, size-2 key) pair of
// a built index.
func TestLemma1FilterSubset(t *testing.T) {
	trees := corpusgen.New(17).Trees(150)
	dir := filepath.Join(t.TempDir(), "f")
	if _, err := Build(dir, trees, Options{MSS: 2, Coding: postings.FilterBased}); err != nil {
		t.Fatal(err)
	}
	ix := openDir(t, dir, OpenOptions{})

	checked := 0
	err := ix.Keys("", func(k subtree.Key, _ int) bool {
		p, err := subtree.ParseKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if p.Size() != 2 {
			return true
		}
		// s1 = the single root label of s2.
		s1 := (&subtree.Pattern{Label: p.Label}).Key()
		super := tidSet(t, rawPostings(t, ix, k))
		sub := tidSet(t, rawPostings(t, ix, s1))
		for tid := range super {
			if !sub[tid] {
				t.Fatalf("Lemma 1(i) violated: tid %d in postings of %q but not of %q", tid, k, s1)
			}
		}
		checked++
		return checked < 500
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no size-2 keys checked")
	}
}

func tidSet(t *testing.T, payload []byte) map[uint32]bool {
	t.Helper()
	out := map[uint32]bool{}
	it := postings.NewFilterIterator(payload)
	for it.Next() {
		out[it.TID()] = true
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return out
}

// TestLemma1RootSplitSubsetSameRoot: for s1 ⊑ s2 sharing the same root,
// every root-split posting of s2 appears in s1's list (same tid & pre).
func TestLemma1RootSplitSubsetSameRoot(t *testing.T) {
	trees := corpusgen.New(17).Trees(150)
	dir := filepath.Join(t.TempDir(), "r")
	if _, err := Build(dir, trees, Options{MSS: 2, Coding: postings.RootSplit}); err != nil {
		t.Fatal(err)
	}
	ix := openDir(t, dir, OpenOptions{})

	checked := 0
	err := ix.Keys("", func(k subtree.Key, _ int) bool {
		p, err := subtree.ParseKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if p.Size() != 2 {
			return true
		}
		s1 := (&subtree.Pattern{Label: p.Label}).Key() // same root, s1 ⊑ s2
		super := rootSet(t, rawPostings(t, ix, k))
		sub := rootSet(t, rawPostings(t, ix, s1))
		for e := range super {
			if !sub[e] {
				t.Fatalf("Lemma 1(ii) violated: posting %v of %q missing from %q", e, k, s1)
			}
		}
		checked++
		return checked < 500
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no size-2 keys checked")
	}
}

func rootSet(t *testing.T, payload []byte) map[[2]uint32]bool {
	t.Helper()
	out := map[[2]uint32]bool{}
	it := postings.NewRootIterator(payload)
	for it.Next() {
		e := it.Entry()
		out[[2]uint32{e.TID, e.Pre}] = true
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return out
}

// TestLemma1IntervalCounterexample reproduces the paper's proof of
// Lemma 1(iii): over the single tree NP(NN)(NN)(NN) with mss=2, the
// subtree-interval posting list of NP(NN) has three entries while NP
// has one — larger keys do NOT guarantee smaller interval lists.
func TestLemma1IntervalCounterexample(t *testing.T) {
	b := lingtree.NewBuilder(0)
	np := b.Add(lingtree.NoParent, "NP")
	b.Add(np, "NN")
	b.Add(np, "NN")
	b.Add(np, "NN")
	tree := b.Tree()

	dir := filepath.Join(t.TempDir(), "i")
	if _, err := Build(dir, []*lingtree.Tree{tree}, Options{MSS: 2, Coding: postings.SubtreeInterval}); err != nil {
		t.Fatal(err)
	}
	ix := openDir(t, dir, OpenOptions{})

	npKey := (&subtree.Pattern{Label: "NP"}).Key()
	npnnKey := subtree.P("NP", subtree.P("NN")).Key()
	cNP, err := ix.LookupKey(npKey)
	if err != nil {
		t.Fatal(err)
	}
	cNPNN, err := ix.LookupKey(npnnKey)
	if err != nil {
		t.Fatal(err)
	}
	if cNP != 1 || cNPNN != 3 {
		t.Fatalf("counterexample counts: NP=%d (want 1), NP(NN)=%d (want 3)", cNP, cNPNN)
	}
	// Under root-split the same corpus deduplicates to one posting each
	// — the monotonicity Lemma 1(ii) restores.
	dirR := filepath.Join(t.TempDir(), "r")
	if _, err := Build(dirR, []*lingtree.Tree{tree}, Options{MSS: 2, Coding: postings.RootSplit}); err != nil {
		t.Fatal(err)
	}
	rx := openDir(t, dirR, OpenOptions{})
	rNPNN, err := rx.LookupKey(npnnKey)
	if err != nil {
		t.Fatal(err)
	}
	if rNPNN != 1 {
		t.Fatalf("root-split NP(NN) postings = %d, want 1 (dedup)", rNPNN)
	}
}

// TestLemma2OneAncestorPerDescendant: for s1 ⊑ s2 with differently
// labelled roots, each posting of s1 relates to at most one posting of
// s2 (ancestor-descendant is one-to-many) — verified as: the number of
// s2 postings per tree never exceeds the number of s1 postings when s1
// is the unique leaf label of s2... verified here in its direct form:
// for every s1 posting there is at most one s2 posting containing it.
func TestLemma2OneAncestorPerDescendant(t *testing.T) {
	trees := corpusgen.New(23).Trees(100)
	dir := filepath.Join(t.TempDir(), "r2")
	if _, err := Build(dir, trees, Options{MSS: 2, Coding: postings.RootSplit}); err != nil {
		t.Fatal(err)
	}
	ix := openDir(t, dir, OpenOptions{})

	checked := 0
	err := ix.Keys("", func(k subtree.Key, _ int) bool {
		p, err := subtree.ParseKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if p.Size() != 2 || len(p.Children) != 1 || p.Children[0].Label == p.Label {
			return true
		}
		// s1 = the child label (different from the root's), s2 = key k.
		s2 := decodeRootEntries(t, rawPostings(t, ix, k))
		s1 := decodeRootEntries(t, rawPostings(t, ix, (&subtree.Pattern{Label: p.Children[0].Label}).Key()))
		// For each s1 posting, count s2 postings that are its parent
		// (the instance containing it); Lemma 2 bounds it by one.
		for _, d := range s1 {
			parents := 0
			for _, a := range s2 {
				if a.TID == d.TID && a.Pre < d.Pre && a.Post > d.Post && a.Level+1 == d.Level {
					parents++
				}
			}
			if parents > 1 {
				t.Fatalf("Lemma 2 violated: %d parent postings of %q for descendant %v", parents, k, d)
			}
		}
		checked++
		return checked < 120
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no applicable keys checked")
	}
}

func decodeRootEntries(t *testing.T, payload []byte) []postings.RootEntry {
	t.Helper()
	var out []postings.RootEntry
	it := postings.NewRootIterator(payload)
	for it.Next() {
		out = append(out, it.Entry())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return out
}
