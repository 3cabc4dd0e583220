package subtree

import (
	"slices"
	"testing"

	"repro/internal/corpusgen"
	"repro/internal/lingtree"
)

// occurrence is one extracted instance, copied out of the Extractor's
// arenas so it outlives the callback.
type occurrence struct {
	Key   Key
	Root  int
	Nodes []int
}

// collect runs e over t and copies every instance out.
func collect(e *Extractor, t *lingtree.Tree, mss int) []occurrence {
	var out []occurrence
	e.Extract(t, mss, func(key []byte, root int, slots []int) {
		out = append(out, occurrence{Key: Key(key), Root: root, Nodes: slices.Clone(slots)})
	})
	return out
}

// referenceExtract is the top-down extractor the Extractor replaced:
// materialise every node set with EnumerateRooted and build, then
// canonicalise, its induced pattern. It is the oracle for the
// bottom-up kernel's keys, slot mappings and order.
func referenceExtract(t *lingtree.Tree, mss int) []occurrence {
	var out []occurrence
	for v := range t.Nodes {
		for m := 1; m <= mss; m++ {
			for _, nodes := range EnumerateRooted(t, v, m) {
				p, slots, err := InducedPattern(t, nodes)
				if err != nil {
					panic("subtree: enumeration produced disconnected set: " + err.Error())
				}
				out = append(out, occurrence{Key: p.Key(), Root: v, Nodes: slots})
			}
		}
	}
	return out
}

// checkAgainstReference fails unless the Extractor yields exactly the
// reference's (Key, Root, Nodes) sequence for t at mss.
func checkAgainstReference(t *testing.T, e *Extractor, tr *lingtree.Tree, mss int) {
	t.Helper()
	got, want := collect(e, tr, mss), referenceExtract(tr, mss)
	if len(got) != len(want) {
		t.Fatalf("tree %s mss %d: %d instances, reference %d", tr, mss, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Root != w.Root || !slices.Equal(g.Nodes, w.Nodes) {
			t.Fatalf("tree %s mss %d: instance %d is (%q, %d, %v), reference (%q, %d, %v)",
				tr, mss, i, g.Key, g.Root, g.Nodes, w.Key, w.Root, w.Nodes)
		}
	}
}

func TestExtractAgreesWithReference(t *testing.T) {
	trees := corpusgen.New(5).Trees(40)
	var e Extractor // one Extractor across every tree and mss: reuse must not leak state
	for mss := 1; mss <= 6; mss++ {
		for _, tr := range trees {
			checkAgainstReference(t, &e, tr, mss)
		}
	}
}

// FuzzExtract holds the Extractor to the reference on arbitrary
// bracketed trees at MSS 1 + mssRaw%6. Inputs that do not parse are
// rejected by the parser and skipped; trees with too many instances
// for the slow reference are skipped too. The committed seeds
// (testdata/fuzz/FuzzExtract) cover twin siblings, escaped labels, a
// unary chain longer than MSS, fan-out wider than MSS and one node.
func FuzzExtract(f *testing.F) {
	var e Extractor
	f.Fuzz(func(t *testing.T, src string, mssRaw uint8) {
		tr, err := lingtree.ParseBracketed(0, src)
		if err != nil {
			return
		}
		mss := int(mssRaw%6) + 1
		total := int64(0)
		for _, c := range CountAllSizes(tr, mss) {
			total += c
		}
		if total > 20000 {
			return
		}
		checkAgainstReference(t, &e, tr, mss)
	})
}
