package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lingtree"
)

// This file implements background compaction, the reclaim half of the
// segment lifecycle: appends and deletes only ever add segments and
// tombstones, so query fan-out and disk usage grow with every update
// until a compaction merges the surviving trees of all segments into
// one fresh segment, republishes the manifest with the old ones
// delisted, and lets the epoch/refcount machinery retire them — their
// files close and their directories are deleted once the last pinned
// query drains. The merge reuses the ordinary build path (the
// compacted segment is byte-identical to a from-scratch rebuild of the
// surviving trees, which the property tests assert), mirroring zoekt's
// compound-shard merge.

// CompactOptions shape one compaction run.
type CompactOptions struct {
	// Shards is the partition count of the compacted segment; <= 0
	// builds a single shard.
	Shards int
	// MinSegments and MinTombstones gate the run: compaction proceeds
	// when the index has at least MinSegments segments *or* at least
	// MinTombstones tombstoned trees, and reports (false, nil, nil)
	// otherwise. Zero values default to 2 and 1 — i.e. compact whenever
	// there is anything to merge or any tree to reclaim. A background
	// trigger raises them to avoid rewriting the corpus after every
	// small append.
	MinSegments   int
	MinTombstones int
}

// Compact merges the surviving (non-tombstoned) trees of every live
// segment into one fresh segment, publishes a manifest listing only
// that segment with an empty tombstone section, and retires the old
// segments through the epoch lifecycle: in-flight queries finish on
// the segment set they pinned, and each replaced segment's files are
// closed and its directory deleted when its last reader drains.
// Surviving trees are renumbered to the contiguous global tids
// 0..n-1 in their current order — exactly the tids a from-scratch
// rebuild of the survivors would assign — so callers holding old
// global tids across a compaction must re-resolve them. Returns
// whether a compaction ran (false with a nil error when the
// CompactOptions thresholds say there is nothing to do, and always
// false on a never-segmented root, which is a single segment with no
// tombstones) and, when it ran, the compacted segment's build
// statistics. Compact serializes with Append, Update, Reload and
// Close; a crash after the manifest publish but before directory
// removal leaves unreferenced seg-NNNNNN directories that the next
// full rebuild sweeps away.
func (l *Live) Compact(ctx context.Context, opts CompactOptions) (bool, *Meta, error) {
	minSegs := opts.MinSegments
	if minSegs <= 0 {
		minSegs = 2
	}
	minTombs := opts.MinTombstones
	if minTombs <= 0 {
		minTombs = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false, nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return false, nil, err
	}
	cur := l.cur.Load()
	info := l.info.Load()
	if cur.gen == 0 {
		// A never-segmented root is one segment with no tombstones;
		// there is nothing to merge and nothing to reclaim.
		return false, nil, nil
	}
	if len(cur.segs) < minSegs && info.deleted < minTombs {
		return false, nil, nil
	}
	live := info.meta.NumTrees - info.deleted
	if live == 0 {
		return false, nil, fmt.Errorf("core: compaction would leave no trees; rebuild the index instead")
	}

	// Gather the survivors in global tid order; the build numbers them
	// 0..live-1 by position.
	survivors := make([]*lingtree.Tree, 0, live)
	li := 0
	for _, sg := range cur.segs {
		for _, leaf := range sg.leaves {
			if err := ctx.Err(); err != nil {
				return false, nil, err
			}
			dels := cur.set.del(li)
			li++
			n := leaf.Meta().NumTrees
			for local := 0; local < n; local++ {
				if dels.Has(uint32(local)) {
					continue
				}
				t, err := leaf.Tree(local)
				if err != nil {
					return false, nil, err
				}
				survivors = append(survivors, t)
			}
		}
	}

	gen := cur.gen + 1
	name := segDirName(gen)
	segPath := filepath.Join(l.dir, name)
	// A crashed or failed previous attempt may have left a partial
	// directory at this generation; it was never in the manifest, so
	// dropping it is safe.
	if err := os.RemoveAll(segPath); err != nil {
		return false, nil, err
	}
	built, err := BuildSharded(segPath, survivors, Options{
		MSS:    info.meta.MSS,
		Coding: info.meta.Coding,
	}, max(opts.Shards, 1))
	if err != nil {
		os.RemoveAll(segPath)
		return false, nil, err
	}
	// As in Update: honor a cancellation that arrived during the build
	// rather than publishing a segment the caller was told failed.
	if err := ctx.Err(); err != nil {
		os.RemoveAll(segPath)
		return false, nil, err
	}
	sg, err := l.openSegment(name)
	if err != nil {
		os.RemoveAll(segPath)
		return false, nil, err
	}
	if err := l.writeManifestLocked(gen, []*segment{sg}, nil); err != nil {
		sg.close(sg)
		os.RemoveAll(segPath)
		return false, nil, err
	}
	// The old segments are no longer listed anywhere; mark them for
	// directory removal when their last reader drains, then swap the
	// serving epoch.
	for _, old := range cur.segs {
		old.removeDir.Store(true)
	}
	l.publishLocked([]*segment{sg}, gen, nil)
	l.tombs = nil
	return true, built, nil
}
