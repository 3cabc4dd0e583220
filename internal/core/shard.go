package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/lingtree"
	"repro/internal/subtree"
)

// This file implements the sharding layer over the single-directory
// Subtree Index: a sharded build partitions the corpus by tid into N
// contiguous ranges and builds one independent index directory per
// range concurrently; leafSet fans queries out across such leaves and
// merges their tid-sorted results. Because leaf s holds the tids
// [offset_s, offset_{s+1}), per-leaf results only need their leaf's
// base added and concatenated in leaf order to be globally sorted —
// the same partition-then-merge shape zoekt uses for trigram search.

// MaxShards bounds the shard count of one index.
const MaxShards = 256

// shardDirName returns the directory name of shard s under the root.
func shardDirName(s int) string { return fmt.Sprintf("shard-%04d", s) }

// ShardBounds splits n trees into shards contiguous ranges differing in
// size by at most one; bounds has shards+1 entries. Cluster tooling
// partitions a corpus over nodes with it, at exactly the boundaries a
// local sharded build chooses.
func ShardBounds(n, shards int) []int {
	bounds := make([]int, shards+1)
	base, rem := n/shards, n%shards
	for s := 0; s < shards; s++ {
		bounds[s+1] = bounds[s] + base
		if s < rem {
			bounds[s+1]++
		}
	}
	return bounds
}

// BuildSharded constructs a sharded SI over trees under dir: shards
// independent single-directory indexes in shard-NNNN/ subdirectories,
// built concurrently, plus a version-2 meta.json at the root that
// aggregates their statistics. shards == 1 degenerates to Build. Each
// shard stores its trees under local tids starting at 0; the global tid
// is recovered at query time from the shard's base offset.
func BuildSharded(dir string, trees []*lingtree.Tree, opt Options, shards int) (*Meta, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("core: shard count %d out of range [1, %d]", shards, MaxShards)
	}
	// Validate options before touching the directory, so a rejected call
	// never destroys an existing index there.
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if shards > len(trees) {
		shards = len(trees)
		if shards < 1 {
			shards = 1
		}
	}
	if shards == 1 {
		// A previous build here may have been sharded or segmented; drop
		// those directories so the single-directory index fully replaces
		// it.
		if err := removeStale(dir, 0); err != nil {
			return nil, err
		}
		return Build(dir, trees, opt)
	}
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := removeStale(dir, shards); err != nil {
		return nil, err
	}

	meta := &Meta{
		FormatVersion: FormatSharded,
		Shards:        shards,
		RootSkipBlock: opt.rootSkipBlock(),
		MSS:           opt.MSS,
		Coding:        opt.Coding,
	}
	bounds := ShardBounds(len(trees), shards)
	_, err := Gather(shards, false, func(s int) (*Meta, error) {
		// Build numbers the shard's slice by position, so its local
		// tids start at 0.
		return Build(filepath.Join(dir, shardDirName(s)), trees[bounds[s]:bounds[s+1]], opt)
	}, func(_ int, m *Meta) bool {
		meta.NumTrees += m.NumTrees
		meta.Keys += m.Keys
		meta.Postings += m.Postings
		meta.IndexBytes += m.IndexBytes
		meta.DataBytes += m.DataBytes
		meta.ExtractNanos += m.ExtractNanos
		meta.LoadNanos += m.LoadNanos
		return false
	})
	if err != nil {
		return nil, err
	}
	meta.BuildNanos = time.Since(start).Nanoseconds()
	if err := writeMeta(dir, meta); err != nil {
		return nil, err
	}
	return meta, nil
}

// removeStale deletes what a previous build of another shape left in
// dir — segment directories, shard directories at or beyond shards
// and, for a sharded build, root-level leaf files — so reopening never
// sees leftovers of a wider, unsharded or appended-to previous index.
func removeStale(dir string, shards int) error {
	return removeEntries(dir, func(name string) bool {
		var s int
		_, err := fmt.Sscanf(name, "shard-%04d", &s)
		return strings.HasPrefix(name, segDirPrefix) || err == nil && s >= shards ||
			shards > 1 && slices.Contains(leafFiles, name)
	})
}

// leafSet is the execution engine: an ordered list of single-directory
// indexes ("leaves") whose contiguous tid ranges concatenate into the
// global tid space. Every epoch of a Live handle carries one — the
// concatenation of every segment's leaves, one per shard directory (or
// the segment directory itself when unsharded). All methods are safe
// for concurrent use.
type leafSet struct {
	leaves  []*Index
	offsets []uint32 // offsets[i] = first global tid of leaf i; len = len(leaves)+1
	// dels holds each leaf's tombstone set, parallel to leaves; a nil
	// slice (an epoch without deletes) means no tombstones anywhere —
	// the hot path stays one nil check.
	dels []*TombSet
}

// del returns leaf i's tombstone set (nil = none).
func (ls leafSet) del(i int) *TombSet {
	if ls.dels == nil {
		return nil
	}
	return ls.dels[i]
}

// numTrees returns the total tree count across the leaves.
func (ls leafSet) numTrees() int {
	if len(ls.offsets) == 0 {
		return 0
	}
	return int(ls.offsets[len(ls.offsets)-1])
}

// mappedLeaves counts the leaves served from a memory mapping.
func (ls leafSet) mappedLeaves() int {
	n := 0
	for _, sh := range ls.leaves {
		if sh.Mapped() {
			n++
		}
	}
	return n
}

// keyCount sums the key's posting count over the leaves in a plain
// loop — a Get is a couple of microseconds, less than a goroutine per
// leaf costs. With live set, tombstoned postings are subtracted (the
// count LookupKey reports); without, it is the stored count prefix,
// tombstones included and no list decoded: the planner's cost of a
// piece. The sum is a uint64, so the planner's total cannot wrap.
func (ls leafSet) keyCount(k subtree.Key, live bool) (uint64, error) {
	var total uint64
	for i, leaf := range ls.leaves {
		var dels *TombSet
		if live {
			dels = ls.del(i)
		}
		n, err := leaf.lookupKeyLive(k, dels)
		if err != nil {
			return 0, err
		}
		total += uint64(n)
	}
	return total, nil
}

// keys iterates the union of all leaves' keys in ascending order, with
// per-key live posting counts summed (so the counts agree with
// LookupKey; keys whose postings are all tombstoned vanish), until fn
// returns false.
func (ls leafSet) keys(start subtree.Key, fn func(k subtree.Key, count int) bool) error {
	iters := make([]*KeyIter, 0, len(ls.leaves))
	live := make([]bool, 0, len(ls.leaves))
	for i, sh := range ls.leaves {
		it := sh.keyIterLive(start, ls.del(i))
		ok := it.Next()
		if err := it.Err(); err != nil {
			return err
		}
		iters = append(iters, it)
		live = append(live, ok)
	}
	for {
		// Pick the minimum current key among live cursors.
		min := subtree.Key("")
		found := false
		for i, it := range iters {
			if live[i] && (!found || it.Key() < min) {
				min = it.Key()
				found = true
			}
		}
		if !found {
			return nil
		}
		count := 0
		for i, it := range iters {
			if live[i] && it.Key() == min {
				count += it.Count()
				live[i] = it.Next()
				if err := it.Err(); err != nil {
					return err
				}
			}
		}
		if !fn(min, count) {
			return nil
		}
	}
}

// tree fetches the tree with global tid, routing to the owning leaf.
// A tombstoned tid is reported as deleted: its bytes still exist but
// the tree no longer does.
func (ls leafSet) tree(tid int) (*lingtree.Tree, error) {
	if tid < 0 || tid >= ls.numTrees() {
		return nil, fmt.Errorf("core: tid %d out of range [0, %d)", tid, ls.numTrees())
	}
	// offsets is ascending; find the leaf whose range holds tid.
	sh := sort.Search(len(ls.leaves), func(i int) bool {
		return ls.offsets[i+1] > uint32(tid)
	})
	if ls.del(sh).Has(uint32(tid) - ls.offsets[sh]) {
		return nil, fmt.Errorf("core: tree %d is deleted", tid)
	}
	t, err := ls.leaves[sh].Tree(tid - int(ls.offsets[sh]))
	if err != nil {
		return nil, err
	}
	// The leaf stores the tree under its local tid; report the global
	// one to the caller.
	ct := *t
	ct.TID = tid
	return &ct, nil
}

// writeMeta persists meta as dir/meta.json.
func writeMeta(dir string, meta *Meta) error {
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, metaFileName), mb, 0o644)
}
