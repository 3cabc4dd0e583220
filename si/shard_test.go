package si_test

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/si"
)

// TestShardedBuildAndOpen exercises the public sharded path: Build with
// Shards > 1, Open detects the sharded root, and Count is identical
// across shard counts.
func TestShardedBuildAndOpen(t *testing.T) {
	trees := si.GenerateCorpus(42, 500)
	queries := []string{"NP(DT)(NN)", "S(NP)(VP)", "S(//NN)"}

	want := map[string]int{}
	for _, shards := range []int{1, 2, 4} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("ix%d", shards))
		opts := si.DefaultBuildOptions()
		opts.Shards = shards
		if _, err := si.Build(dir, trees, opts); err != nil {
			t.Fatal(err)
		}
		ix, err := si.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		if ix.Shards() != shards {
			t.Fatalf("Shards() = %d, want %d", ix.Shards(), shards)
		}
		if ix.NumTrees() != len(trees) {
			t.Fatalf("NumTrees = %d", ix.NumTrees())
		}
		for _, q := range queries {
			n, err := ix.Count(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatalf("%s: zero matches, vacuous", q)
			}
			if shards == 1 {
				want[q] = n
			} else if n != want[q] {
				t.Errorf("shards=%d %s: Count = %d, want %d", shards, q, n, want[q])
			}
		}
	}
}

// TestBuildNumbersTreesByPosition builds a corpus slice whose first TID
// is not 0: single-shard and sharded builds both number it by position,
// return the same matches, and Tree(tid) returns the tree that matched.
func TestBuildNumbersTreesByPosition(t *testing.T) {
	trees := si.GenerateCorpus(1, 200)[100:]
	const q = "NP(DT)(NN)"
	var want []si.Match
	for _, shards := range []int{1, 2} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("ix%d", shards))
		opts := si.DefaultBuildOptions()
		opts.Shards = shards
		if _, err := si.Build(dir, trees, opts); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		ix, err := si.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ix.Close()
		res, err := ix.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			t.Fatalf("shards=%d: %s has no matches, vacuous", shards, q)
		}
		if shards == 1 {
			want = res.Matches
		} else if !slices.Equal(res.Matches, want) {
			t.Errorf("shards=%d: %d matches differ from the single-shard build's %d", shards, len(res.Matches), len(want))
		}
		for _, m := range res.Matches {
			got, err := ix.Tree(int(m.TID))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != trees[m.TID].String() || got.Label(int(m.Root)) != "NP" {
				t.Fatalf("shards=%d: Tree(%d) = %s, want the matched tree %s", shards, m.TID, got, trees[m.TID])
			}
		}
	}
}

// TestConcurrentSearchSharded issues Search and Count from many
// goroutines against one open sharded index with a page cache — the
// -race acceptance test of the issue, at the public API level.
func TestConcurrentSearchSharded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	trees := si.GenerateCorpus(7, 400)
	opts := si.DefaultBuildOptions()
	opts.Shards = 4
	if _, err := si.Build(dir, trees, opts); err != nil {
		t.Fatal(err)
	}
	ix, err := si.OpenWith(dir, si.OpenOptions{CacheSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	queries := []string{"NP(DT)(NN)", "S(NP)(VP)", "VP(VBZ)", "S(//NN)"}
	want := make([]int, len(queries))
	for i, q := range queries {
		if want[i], err = ix.Count(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 24
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				qi := (g + r) % len(queries)
				res, err := ix.Search(context.Background(), queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Matches) != want[qi] {
					t.Errorf("%s: %d matches, want %d", queries[qi], len(res.Matches), want[qi])
				}
				n, err := ix.Count(context.Background(), queries[qi])
				if err != nil || n != want[qi] {
					t.Errorf("%s: Count = %d (%v), want %d", queries[qi], n, err, want[qi])
				}
			}
		}(g)
	}
	wg.Wait()
}
