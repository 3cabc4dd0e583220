package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpusgen"
	"repro/internal/lingtree"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
	"repro/internal/treebank"
)

var shardQueries = []string{
	"NP(DT)(NN)",
	"S(NP)(VP)",
	"VP(VBZ)(NP(DT))",
	"S(//NN)",
	"NP(//DT(the))",
	"PP(IN)(NP)",
}

func shardCorpus(n int) []*lingtree.Tree {
	return corpusgen.New(2012).Trees(n)
}

// TestShardedKeysAndLookup checks that the merged key iteration visits
// the same keys with the same summed counts as the single index, and
// that LookupKey agrees with the merge.
func TestShardedKeysAndLookup(t *testing.T) {
	trees := shardCorpus(400)
	single := openLive(t, trees, 1, OpenOptions{})
	sharded := openLive(t, trees, 4, OpenOptions{})

	collect := func(h *Live) map[subtree.Key]int {
		m := map[subtree.Key]int{}
		var prev subtree.Key
		first := true
		if err := h.Keys("", func(k subtree.Key, c int) bool {
			if !first && k <= prev {
				t.Fatalf("keys out of order: %q after %q", k, prev)
			}
			prev, first = k, false
			m[k] = c
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	want := collect(single)
	got := collect(sharded)
	if len(want) == 0 {
		t.Fatal("no keys in single index")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged keys differ: %d vs %d entries", len(got), len(want))
	}
	probes := 0
	for k, c := range want {
		n, err := sharded.LookupKey(k)
		if err != nil {
			t.Fatal(err)
		}
		if n != c {
			t.Errorf("LookupKey(%q) = %d, want %d", k, n, c)
		}
		if probes++; probes == 50 {
			break
		}
	}
}

// TestShardedTreeRouting checks global-tid routing to the owning shard.
func TestShardedTreeRouting(t *testing.T) {
	trees := shardCorpus(101) // odd size: shards differ in length
	sharded := openLive(t, trees, 4, OpenOptions{})
	for _, tid := range []int{0, 25, 26, 50, 75, 100} {
		got, err := sharded.Tree(tid)
		if err != nil {
			t.Fatal(err)
		}
		if got.TID != tid {
			t.Errorf("Tree(%d).TID = %d", tid, got.TID)
		}
		if got.Size() != trees[tid].Size() || got.Label(0) != trees[tid].Label(0) {
			t.Errorf("Tree(%d) shape differs from source", tid)
		}
	}
	if _, err := sharded.Tree(101); err == nil {
		t.Error("out-of-range tid accepted")
	}
	if _, err := sharded.Tree(-1); err == nil {
		t.Error("negative tid accepted")
	}
}

// TestShardedConcurrentQueries hammers one open sharded index from many
// goroutines; run under -race this is the concurrency safety check for
// the fan-out path, the pager's pooled pread buffers (hence MmapOff) and
// the shared B+Tree readers.
func TestShardedConcurrentQueries(t *testing.T) {
	trees := shardCorpus(400)
	sharded := openLive(t, trees, 4, OpenOptions{Mmap: MmapOff})
	want := map[string]int{}
	for _, src := range shardQueries {
		ms, err := searchQuery(sharded, query.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		want[src] = len(ms)
	}
	const goroutines = 16
	const rounds = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				src := shardQueries[(g+r)%len(shardQueries)]
				ms, err := searchQuery(sharded, query.MustParse(src))
				if err != nil {
					errc <- err
					return
				}
				if len(ms) != want[src] {
					t.Errorf("%s: %d matches, want %d", src, len(ms), want[src])
				}
				if _, err := sharded.Tree(int(ms[0].TID)); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestMetaVersioning: unknown future versions are rejected, legacy
// metas without a version still open, and sharded roots refuse the
// leaf opener, pointing at OpenLive.
func TestMetaVersioning(t *testing.T) {
	trees := shardCorpus(50)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := Build(dir, trees, Options{MSS: 2, Coding: postings.RootSplit}); err != nil {
		t.Fatal(err)
	}

	metaPath := filepath.Join(dir, metaFileName)
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}

	// Legacy meta: no format_version field at all.
	delete(m, "format_version")
	legacy, _ := json.Marshal(m)
	if err := os.WriteFile(metaPath, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("legacy meta rejected: %v", err)
	}
	if ix.Meta().FormatVersion != FormatSingle {
		t.Errorf("legacy version normalized to %d", ix.Meta().FormatVersion)
	}
	ix.Close()

	// Future meta: version beyond CurrentFormatVersion.
	m["format_version"] = CurrentFormatVersion + 1
	future, _ := json.Marshal(m)
	if err := os.WriteFile(metaPath, future, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLive(dir, OpenOptions{}); err == nil {
		t.Error("future format version accepted")
	}
	if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A sharded root must not open as a leaf.
	sdir := filepath.Join(t.TempDir(), "sharded")
	if _, err := BuildSharded(sdir, trees, Options{MSS: 2, Coding: postings.RootSplit}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(sdir, OpenOptions{}); err == nil || !strings.Contains(err.Error(), "OpenLive") {
		t.Errorf("sharded root opened as a leaf: err = %v, want one naming OpenLive", err)
	}
}

// TestShardedRebuildNarrower rebuilds a root with fewer shards and
// checks stale shard directories are removed.
func TestShardedRebuildNarrower(t *testing.T) {
	trees := shardCorpus(80)
	dir := filepath.Join(t.TempDir(), "ix")
	opt := Options{MSS: 2, Coding: postings.RootSplit}
	if _, err := BuildSharded(dir, trees, opt, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSharded(dir, trees, opt, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardDirName(3))); !os.IsNotExist(err) {
		t.Error("stale shard-0003 survived narrower rebuild")
	}
	h := openDir(t, dir, OpenOptions{})
	if h.NumShards() != 2 {
		t.Errorf("NumShards = %d after rebuild", h.NumShards())
	}
	if h.Meta().NumTrees != len(trees) {
		t.Errorf("NumTrees = %d", h.Meta().NumTrees)
	}
}

// TestShardedRebuildAcrossBoundary rebuilds across the sharded/single
// boundary in both directions and checks no stale files survive.
func TestShardedRebuildAcrossBoundary(t *testing.T) {
	trees := shardCorpus(80)
	dir := filepath.Join(t.TempDir(), "ix")
	opt := Options{MSS: 2, Coding: postings.RootSplit}

	// Sharded then single: the shard directories must disappear.
	if _, err := BuildSharded(dir, trees, opt, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSharded(dir, trees, opt, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, shardDirName(0))); !os.IsNotExist(err) {
		t.Error("stale shard-0000 survived single rebuild")
	}
	h, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumShards() != 1 {
		t.Errorf("NumShards = %d after single rebuild", h.NumShards())
	}
	h.Close()

	// Single then sharded: the root-level index files must disappear.
	if _, err := BuildSharded(dir, trees, opt, 3); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{indexFileName, treebank.DataFileName, treebank.IndexFileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale %s survived sharded rebuild", name)
		}
	}
	h = openDir(t, dir, OpenOptions{})
	if h.NumShards() != 3 {
		t.Errorf("NumShards = %d after sharded rebuild", h.NumShards())
	}
}

// TestShardedBuildRejectionIsNonDestructive: a build with invalid
// options over an existing sharded index must fail without touching it.
func TestShardedBuildRejectionIsNonDestructive(t *testing.T) {
	trees := shardCorpus(60)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees, Options{MSS: 2, Coding: postings.RootSplit}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildSharded(dir, trees, Options{MSS: 9, Coding: postings.RootSplit}, 1); err == nil {
		t.Fatal("mss 9 accepted")
	}
	h, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("index destroyed by rejected rebuild: %v", err)
	}
	defer h.Close()
	if h.NumShards() != 3 {
		t.Errorf("NumShards = %d after rejected rebuild", h.NumShards())
	}
}

// TestShardedTinyCorpusDegeneratesToSingle: Shards greater than the
// corpus size clamps, and a clamp all the way to one shard produces
// the documented single-directory layout.
func TestShardedTinyCorpusDegeneratesToSingle(t *testing.T) {
	trees := shardCorpus(1)
	dir := filepath.Join(t.TempDir(), "ix")
	m, err := BuildSharded(dir, trees, Options{MSS: 2, Coding: postings.RootSplit}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.FormatVersion != FormatSingle || m.Shards != 0 {
		t.Errorf("meta = version %d, shards %d; want a single-directory index", m.FormatVersion, m.Shards)
	}
	ix, err := OpenWith(dir, OpenOptions{}) // the leaf opener must accept it
	if err != nil {
		t.Fatal(err)
	}
	ix.Close()
	if _, err := os.Stat(filepath.Join(dir, shardDirName(0))); !os.IsNotExist(err) {
		t.Error("shard-0000 created for a degenerate single build")
	}
}

// TestShardBounds checks the contiguous partition arithmetic.
func TestShardBounds(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
		want      []int
	}{
		{10, 2, []int{0, 5, 10}},
		{10, 3, []int{0, 4, 7, 10}},
		{3, 3, []int{0, 1, 2, 3}},
		{5, 1, []int{0, 5}},
	} {
		if got := ShardBounds(tc.n, tc.shards); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ShardBounds(%d, %d) = %v, want %v", tc.n, tc.shards, got, tc.want)
		}
	}
}
