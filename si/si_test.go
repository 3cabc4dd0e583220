package si_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/si"
)

func buildSmall(t *testing.T, opts si.BuildOptions) *si.Index {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "idx")
	trees := si.GenerateCorpus(11, 200)
	info, err := si.Build(dir, trees, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.Keys == 0 || info.Postings == 0 || info.IndexBytes == 0 {
		t.Fatalf("empty build info: %+v", info)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

func TestPublicAPIRoundTrip(t *testing.T) {
	ix := buildSmall(t, si.DefaultBuildOptions())
	if ix.MSS() != 3 || ix.Coding() != si.RootSplit || ix.NumTrees() != 200 {
		t.Errorf("meta: mss=%d coding=%v trees=%d", ix.MSS(), ix.Coding(), ix.NumTrees())
	}
	res, err := ix.Search(context.Background(), "NP(DT)(NN)")
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Matches
	if len(ms) == 0 {
		t.Fatal("no matches for a common construction")
	}
	if res.Count != len(ms) || res.Stats.Truncated {
		t.Errorf("unlimited search: Count = %d, truncated = %v", res.Count, res.Stats.Truncated)
	}
	n, err := ix.Count(context.Background(), "NP(DT)(NN)")
	if err != nil || n != len(ms) {
		t.Errorf("Count = %d, %v", n, err)
	}
	// Fetch the matched tree and verify the root label.
	tr, err := ix.Tree(int(ms[0].TID))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Nodes[ms[0].Root].Label; got != "NP" {
		t.Errorf("match root label = %q", got)
	}
	if _, err := ix.Search(context.Background(), "NP((("); err == nil {
		t.Error("bad query accepted")
	}
}

func TestDefaultMSS(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	trees := si.GenerateCorpus(1, 20)
	if _, err := si.Build(dir, trees, si.BuildOptions{Coding: si.RootSplit}); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.MSS() != 3 {
		t.Errorf("default MSS = %d, want 3", ix.MSS())
	}
}

func TestParseAndWriteTrees(t *testing.T) {
	src := "(S (NP (NNS agouti)) (VP (VBZ is)))\n# c\n(A b)\n"
	trees, err := si.ReadTrees(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("trees = %d", len(trees))
	}
	var sb strings.Builder
	for _, tr := range trees {
		if err := si.WriteTree(&sb, tr); err != nil {
			t.Fatal(err)
		}
	}
	back, err := si.ReadTrees(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back[0].String() != trees[0].String() {
		t.Error("round trip differs")
	}
	if _, err := si.ParseTree(0, "(broken"); err == nil {
		t.Error("bad tree accepted")
	}
}

func TestKeysAndSelectivity(t *testing.T) {
	ix := buildSmall(t, si.DefaultBuildOptions())
	q, err := si.ParseQuery("NP(DT)")
	if err != nil {
		t.Fatal(err)
	}
	key, err := si.KeyOf(q)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ix.KeyCount(key)
	if err != nil || n == 0 {
		t.Errorf("KeyCount(%q) = %d, %v", key, n, err)
	}
	// // queries have no single key.
	qd, _ := si.ParseQuery("NP(//DT)")
	if _, err := si.KeyOf(qd); err == nil {
		t.Error("KeyOf accepted a // query")
	}
	count := 0
	if err := ix.Keys("", func(si.Key, int) bool { count++; return count < 10 }); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("iterated %d keys", count)
	}
}

func TestAllCodingsViaPublicAPI(t *testing.T) {
	for _, coding := range []si.Coding{si.FilterBased, si.RootSplit, si.SubtreeInterval} {
		ix := buildSmall(t, si.BuildOptions{MSS: 2, Coding: coding})
		res, err := ix.Search(context.Background(), "S(NP)(VP)")
		if err != nil {
			t.Fatalf("%v: %v", coding, err)
		}
		if len(res.Matches) == 0 {
			t.Errorf("%v: no matches", coding)
		}
	}
}

// TestStatsReportListMemo reads the decoded-list memo through Stats: a
// first search streams its lists, the second admits the tabled ones
// and the third is served from them, while the memo's bytes stay under
// its bound of twice the index file. Other codings hold no memo.
func TestStatsReportListMemo(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "idx")
	info, err := si.Build(dir, si.GenerateCorpus(11, 1500), si.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	const q = "S(NP(DT)(NN))(VP)"
	var st [3]si.Stats
	for i := range st {
		if _, err := ix.Count(ctx, q); err != nil {
			t.Fatal(err)
		}
		st[i] = ix.Stats()
	}
	if st[0].ListMemoAdmissions != 0 || st[0].ListMemoHits != 0 || st[0].ListMemoLists != 0 {
		t.Fatalf("a first search used the memo: %+v", st[0])
	}
	if st[1].ListMemoAdmissions == 0 || st[1].ListMemoLists != int(st[1].ListMemoAdmissions) || st[1].ListMemoBytes == 0 {
		t.Fatalf("a second search admitted nothing: %+v", st[1])
	}
	if st[2].ListMemoHits != st[1].ListMemoHits+st[1].ListMemoAdmissions || st[2].ListMemoAdmissions != st[1].ListMemoAdmissions {
		t.Fatalf("a third search was not served from the admitted lists: %+v after %+v", st[2], st[1])
	}
	if st[2].ListMemoBytes > 2*info.IndexBytes || st[2].ListMemoClears != 0 {
		t.Fatalf("memo of %d bytes (%d clears) over a %d-byte index file", st[2].ListMemoBytes, st[2].ListMemoClears, info.IndexBytes)
	}

	opts := si.DefaultBuildOptions()
	opts.Coding = si.SubtreeInterval
	other := buildSmall(t, opts)
	for range 3 {
		if _, err := other.Count(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if s := other.Stats(); s.ListMemoAdmissions != 0 || s.ListMemoLists != 0 {
		t.Fatalf("a subtree-interval index held a memo: %+v", s)
	}
}
