package core

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpusgen"
	"repro/internal/lingtree"
	"repro/internal/match"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// openDir opens dir through the one handle and closes it with the test.
func openDir(t testing.TB, dir string, opts OpenOptions) *Live {
	t.Helper()
	l, err := OpenLive(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// searchText returns every match of src: an unbounded Search. No
// matches come back as nil, so results compare with reflect.DeepEqual
// against the exact matcher's.
func searchText(l *Live, src string) ([]Match, error) {
	res, err := l.Search(context.Background(), src, SearchOpts{})
	if err != nil || len(res.Matches) == 0 {
		return nil, err
	}
	return res.Matches, nil
}

// searchQuery is searchText for an already-parsed query.
func searchQuery(l *Live, q *query.Query) ([]Match, error) {
	res, err := l.SearchQuery(context.Background(), q, SearchOpts{})
	if err != nil || len(res.Matches) == 0 {
		return nil, err
	}
	return res.Matches, nil
}

// searchBatch returns every match of each query, evaluated as one
// unbounded batch.
func searchBatch(l *Live, srcs []string) ([][]Match, error) {
	results, err := l.SearchBatch(context.Background(), srcs, SearchOpts{})
	if err != nil {
		return nil, err
	}
	out := make([][]Match, len(results))
	for i, r := range results {
		out[i] = r.Matches
	}
	return out, nil
}

// buildAll builds one index per coding over the same trees and mss.
func buildAll(t testing.TB, trees []*lingtree.Tree, mss int) map[postings.Coding]*Live {
	t.Helper()
	out := map[postings.Coding]*Live{}
	for _, c := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
		dir := filepath.Join(t.TempDir(), c.String())
		if _, err := Build(dir, trees, Options{MSS: mss, Coding: c}); err != nil {
			t.Fatalf("build %v: %v", c, err)
		}
		out[c] = openDir(t, dir, OpenOptions{})
	}
	return out
}

// groundTruth computes matches with the exact matcher.
func groundTruth(trees []*lingtree.Tree, q *query.Query) []Match {
	m := match.New(q)
	var out []Match
	for _, t := range trees {
		for _, r := range m.Roots(t) {
			out = append(out, Match{TID: uint32(t.TID), Root: uint32(r)})
		}
	}
	return out
}

var equivalenceQueries = []string{
	"NP",
	"NP(DT)",
	"NP(DT)(NN)",
	"NP(DT(the))",
	"S(NP)(VP)",
	"VP(VBZ)(NP)",
	"S(NP(DT)(NN))(VP)",
	"VP(VBZ(is))",
	"NP(DT(a))(NN)",
	"S(NP)(VP(VBZ)(NP(DT)))",
	"ROOT(S(NP)(VP))",
	"PP(IN(of))(NP)",
	"S(//NN)",
	"VP(//DT)",
	"S(NP)(//PP(IN))",
	"ROOT(//VP(VBZ))",
	"NP(//the)",
	"S(//NP(DT)(NN))",
	"SBAR(IN)(S)",
	"missing-label(NN)",
}

func TestAllCodingsMatchGroundTruth(t *testing.T) {
	trees := corpusgen.New(21).Trees(150)
	for _, mss := range []int{1, 2, 3, 5} {
		indexes := buildAll(t, trees, mss)
		for _, qs := range equivalenceQueries {
			q := query.MustParse(qs)
			if q.HasIdenticalSiblingPatterns() {
				t.Fatalf("test query %q is ambiguous; pick another", qs)
			}
			want := groundTruth(trees, q)
			for coding, ix := range indexes {
				got, err := searchQuery(ix, q)
				if err != nil {
					t.Fatalf("mss=%d %v query %q: %v", mss, coding, qs, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("mss=%d %v query %q: %d matches, want %d\ngot:  %v\nwant: %v",
						mss, coding, qs, len(got), len(want), trunc(got), trunc(want))
				}
			}
		}
	}
}

func trunc(ms []Match) []Match {
	if len(ms) > 12 {
		return ms[:12]
	}
	return ms
}

func TestMetaAndSizeOrdering(t *testing.T) {
	trees := corpusgen.New(3).Trees(120)
	indexes := buildAll(t, trees, 3)
	fm := indexes[postings.FilterBased].Meta()
	rm := indexes[postings.RootSplit].Meta()
	im := indexes[postings.SubtreeInterval].Meta()
	// All codings index the same key set.
	if fm.Keys != rm.Keys || rm.Keys != im.Keys {
		t.Errorf("key counts differ: %d %d %d", fm.Keys, rm.Keys, im.Keys)
	}
	// Figure 8's ordering: filter < root-split < subtree-interval.
	if !(fm.IndexBytes < rm.IndexBytes && rm.IndexBytes < im.IndexBytes) {
		t.Errorf("size ordering violated: filter=%d root-split=%d interval=%d",
			fm.IndexBytes, rm.IndexBytes, im.IndexBytes)
	}
	// Figure 9's ordering: filter has fewest postings, interval most.
	if !(fm.Postings <= rm.Postings && rm.Postings <= im.Postings) {
		t.Errorf("posting ordering violated: %d %d %d", fm.Postings, rm.Postings, im.Postings)
	}
	if fm.NumTrees != 120 {
		t.Errorf("NumTrees = %d", fm.NumTrees)
	}
}

func TestRootDedupReducesPostings(t *testing.T) {
	// §6.2.1 reason (2): symmetric instances collapse under root-split.
	trees := corpusgen.New(3).Trees(80)
	d1 := filepath.Join(t.TempDir(), "dedup")
	d2 := filepath.Join(t.TempDir(), "nodedup")
	m1, err := Build(d1, trees, Options{MSS: 3, Coding: postings.RootSplit})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(d2, trees, Options{MSS: 3, Coding: postings.RootSplit, DisableRootDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Postings >= m2.Postings {
		t.Errorf("dedup %d postings, no-dedup %d", m1.Postings, m2.Postings)
	}
}

// TestSearchStatsExplain: a search reports how it was evaluated — the
// cover pieces, the posting entries decoded for each, and the join
// rows (trees validated, under the filter coding).
func TestSearchStatsExplain(t *testing.T) {
	trees := corpusgen.New(9).Trees(60)
	indexes := buildAll(t, trees, 2)
	q := query.MustParse("S(NP(DT))(VP)")
	for coding, ix := range indexes {
		res, err := ix.SearchQuery(context.Background(), q, SearchOpts{Explain: true})
		if err != nil {
			t.Fatalf("%v: %v", coding, err)
		}
		st := res.Stats
		if len(st.Pieces) < 2 {
			t.Errorf("%v: pieces = %d", coding, len(st.Pieces))
		}
		var decoded uint64
		for _, p := range st.Pieces {
			decoded += p.Actual
		}
		if decoded == 0 || st.PostingFetches == 0 {
			t.Errorf("%v: %d posting fetches decoded %d entries", coding, st.PostingFetches, decoded)
		}
		if coding == postings.FilterBased && st.JoinRows == 0 {
			t.Errorf("filter coding validated no trees")
		}
	}
}

func TestKeysIteration(t *testing.T) {
	trees := corpusgen.New(4).Trees(40)
	indexes := buildAll(t, trees, 2)
	ix := indexes[postings.RootSplit]
	n, total := 0, 0
	err := ix.Keys("", func(k subtree.Key, count int) bool {
		n++
		total += count
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := ix.Meta()
	if n != meta.Keys {
		t.Errorf("iterated %d keys, meta says %d", n, meta.Keys)
	}
	if total != meta.Postings {
		t.Errorf("posting counts sum to %d, meta says %d", total, meta.Postings)
	}
	// Early stop works.
	n = 0
	if err := ix.Keys("", func(subtree.Key, int) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("early stop iterated %d", n)
	}
	// Point lookups agree with iteration for a sampled key.
	var sample subtree.Key
	var sampleCount int
	ix.Keys("", func(k subtree.Key, count int) bool { sample, sampleCount = k, count; return false })
	got, err := ix.LookupKey(sample)
	if err != nil || got != sampleCount {
		t.Errorf("LookupKey(%q) = %d, %v; want %d", sample, got, err, sampleCount)
	}
	if got, err := ix.LookupKey("999:ZZZ"); err != nil || got != 0 {
		t.Errorf("LookupKey(absent) = %d, %v", got, err)
	}
}

func TestBuildRejectsBadOptions(t *testing.T) {
	trees := corpusgen.New(1).Trees(2)
	if _, err := Build(t.TempDir(), trees, Options{MSS: 0}); err == nil {
		t.Error("mss=0 accepted")
	}
	if _, err := Build(t.TempDir(), trees, Options{MSS: 9}); err == nil {
		t.Error("mss=9 accepted")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := OpenLive(t.TempDir(), OpenOptions{}); err == nil {
		t.Error("want error opening empty dir")
	}
}
