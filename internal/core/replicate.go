package core

import (
	"fmt"
	"regexp"
	"sync"
)

// This file is the replication contract between a serving node and the
// cluster layer: the exported pieces a follower needs to pull a
// published segment set over HTTP — the on-disk file names, the set of
// payload files a segment carries, and the validation of
// segment-relative paths a node may serve — plus the consultation
// policy (Gather; the window rule is window.go's) the in-process leafSet
// engine runs on and a router reuses to combine per-node results with
// exactly the same semantics (see internal/cluster). Keeping them here
// means the wire layout can never drift from the index layout: both
// sides read the same constants.

// Exported on-disk file names of one index leaf. A segment directory
// is either one leaf (these three files plus its meta.json) or a set
// of shard-NNNN/ leaf directories, each with its own meta.json.
const (
	// MetaFileName is the index metadata file, and at a segmented root
	// the v3 manifest readers poll for replication.
	MetaFileName = metaFileName
	// IndexFileName is the B+Tree posting index of one leaf.
	IndexFileName = indexFileName
)

// segName matches published segment directory names (seg-NNNNNN); the
// legacy unpromoted root has no name and cannot be served remotely.
var segName = regexp.MustCompile(`^seg-[0-9]{6}$`)

// isShardName reports whether name is a shard directory (shard-NNNN).
var isShardName = regexp.MustCompile(`^shard-[0-9]{4}$`).MatchString

// segFile matches the files a segment may legitimately serve: the
// segment's own meta.json and the three leaf payload files, either at
// the segment root (unsharded) or under one shard-NNNN/ directory.
// Anchored and free of separators beyond the one shard level, it
// rejects traversal (.., absolute paths) structurally.
var segFile = regexp.MustCompile(
	`^(?:shard-[0-9]{4}/)?(?:meta\.json|subtree\.idx|trees\.dat|trees\.idx)$`)

// IsSegmentName reports whether name is a valid published segment
// directory name (seg-NNNNNN).
func IsSegmentName(name string) bool { return segName.MatchString(name) }

// IsSegmentFile reports whether file is a path a segment may serve:
// relative, at most one shard-NNNN/ level deep, and naming one of the
// fixed payload files. Everything else — traversal, absolute paths,
// unknown names — is rejected.
func IsSegmentFile(file string) bool { return segFile.MatchString(file) }

// SegmentPayload lists the files (paths relative to the segment
// directory) that make up a segment with the given metadata, the
// segment's own meta.json included — the exact set a follower must
// fetch to replicate it. The meta decides the shape: a sharded segment
// carries one leaf per shard-NNNN/ directory, an unsharded one is a
// single leaf at the segment root.
func SegmentPayload(meta Meta) ([]string, error) {
	if meta.FormatVersion == FormatSegmented {
		return nil, fmt.Errorf("core: a segment cannot itself be segmented")
	}
	leaf := append([]string{MetaFileName}, leafFiles...)
	if meta.Shards == 0 {
		return leaf, nil
	}
	files := []string{MetaFileName}
	for s := 0; s < meta.Shards; s++ {
		for _, f := range leaf {
			files = append(files, shardDirName(s)+"/"+f)
		}
	}
	return files, nil
}

// lazyLookahead is how many partitions a bounded Gather keeps in
// flight: partition i+1 evaluates while partition i is folded, so a
// limited search overlaps evaluation instead of running strictly
// sequentially, at the cost of at most one partition of speculative
// work beyond what the window needed — which keeps the strictly-fewer-
// fetches guarantee deterministic whenever the window fills before the
// last lookahead window.
const lazyLookahead = 2

// Gather is the one consultation policy over tid-ordered partitions:
// the leaves of a search, the shards of a build, the groups of a
// router. It evaluates partitions 0..n-1 concurrently and folds each
// result in partition order on the caller's goroutine.
//
//   - A bounded gather keeps lazyLookahead partitions in flight; an
//     unbounded one starts all n at once.
//   - Once fold reports the window full, no further partition starts;
//     those already in flight are drained.
//   - A failure before the window is full fails the gather with the
//     lowest-index error, and nothing folds after it.
//   - A failure after the window is full was speculative work the
//     result never needed: it is skipped, and later successes still
//     fold.
//
// Gather returns only once every started eval has returned, and
// consulted is the number of partitions folded. Because partitions
// hold contiguous tid ranges, folding in order and stopping at the
// window is exact: every partition never started is work never done.
func Gather[T any](n int, bounded bool, eval func(i int) (T, error), fold func(i int, v T) (full bool)) (consulted int, err error) {
	type slot struct {
		v    T
		err  error
		done sync.WaitGroup
	}
	slots := make([]slot, n)
	launched := 0
	launch := func() {
		i, s := launched, &slots[launched]
		launched++
		s.done.Add(1)
		go func() {
			defer s.done.Done()
			s.v, s.err = eval(i)
		}()
	}
	ahead := n
	if bounded {
		ahead = min(n, lazyLookahead)
	}
	for launched < ahead {
		launch()
	}
	full := false
	for i := 0; i < launched; i++ {
		s := &slots[i]
		s.done.Wait()
		switch {
		case s.err != nil:
			if err == nil && !full {
				err = s.err
			}
		case err == nil:
			consulted++
			full = fold(i, s.v) || full
		}
		if err == nil && !full && launched < n {
			launch()
		}
	}
	return consulted, err
}
