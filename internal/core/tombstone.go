package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/lingtree"
	"repro/internal/postings"
)

// This file implements logical deletes over the immutable segment
// model: a delete never rewrites a segment, it records the victim's
// segment-local tid in the manifest's tombstone section and republishes
// the manifest atomically, exactly like an append publishes a segment.
// Every query path that decodes postings consults the epoch's tombstone
// sets at decode time, so deleted trees stop matching on the very next
// query while in-flight epoch-pinned queries keep their snapshot; the
// trees themselves are reclaimed later by compaction (see compact.go).
// The tombstone-then-merge split follows zoekt's delete model for
// immutable shards.

// TombSet is an immutable set of leaf-local tree ids that have been
// tombstoned (logically deleted) in one index leaf. The nil *TombSet is
// the empty set — the no-deletes hot path costs one nil check — and a
// non-nil set answers membership with a binary search over a sorted
// slice.
type TombSet struct {
	tids []uint32 // sorted, unique
}

// newTombSet wraps sorted, deduplicated leaf-local tids; nil when the
// slice is empty, so emptiness stays a pointer test.
func newTombSet(tids []uint32) *TombSet {
	if len(tids) == 0 {
		return nil
	}
	return &TombSet{tids: tids}
}

// Has reports whether tid is tombstoned; safe on a nil set.
func (t *TombSet) Has(tid uint32) bool {
	if t == nil {
		return false
	}
	n := len(t.tids)
	i := sort.Search(n, func(i int) bool { return t.tids[i] >= tid })
	return i < n && t.tids[i] == tid
}

// Scan returns a forward-only membership cursor over the set, for the
// decode loops, which all probe in ascending tid order: each probe
// resumes where the previous one stopped instead of searching the whole
// set again. Safe on a nil set, whose scan holds nothing.
func (t *TombSet) Scan() TombScan {
	if t == nil {
		return TombScan{}
	}
	return TombScan{tids: t.tids}
}

// TombScan answers membership in a TombSet for a non-decreasing
// sequence of probes (a repeated tid is fine). The zero value is the
// scan of the empty set.
type TombScan struct {
	tids []uint32 // the set's tids at or after the last probe
}

// Has reports whether tid is tombstoned. tid must not be smaller than
// any earlier probe of this scan. Tombstones below tid are dropped from
// the front — galloping, so a probe far ahead costs the logarithm of
// the distance, and a probe next to the last one a single compare.
func (s *TombScan) Has(tid uint32) bool {
	t := s.tids
	if len(t) == 0 || t[0] > tid {
		return false
	}
	// Invariant: every tid before t[lo] is < tid; t[hi], if any, is >= tid.
	lo, hi := 0, 1
	for hi < len(t) && t[hi] < tid {
		lo, hi = hi+1, 2*hi+1
	}
	hi = min(hi, len(t))
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t[mid] < tid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.tids = t[lo:]
	return lo < len(t) && t[lo] == tid
}

// first returns the smallest tid the scan still holds, the first
// tombstone at or after its last probe; ok is false when none is left.
func (s *TombScan) first() (uint32, bool) {
	if len(s.tids) == 0 {
		return 0, false
	}
	return s.tids[0], true
}

// squeeze drops the postings of tombstoned trees from a decoded block,
// moving the survivors to its front, and returns how many survive.
// The block's tids must not be smaller than any earlier probe.
func (s *TombScan) squeeze(tids []uint32, refs []postings.NodeRef) int {
	if len(s.tids) == 0 {
		return len(tids)
	}
	kept := 0
	for i, tid := range tids {
		if !s.Has(tid) {
			tids[kept], refs[kept] = tid, refs[i]
			kept++
		}
	}
	return kept
}

// Len returns the number of tombstoned tids; 0 on a nil set.
func (t *TombSet) Len() int {
	if t == nil {
		return 0
	}
	return len(t.tids)
}

// normalizeTombstones validates a manifest's tombstone section against
// the opened segment set and returns a clean copy: per-segment tids
// sorted, deduplicated and range-checked, empty entries dropped. A nil
// result means no tombstones at all.
func normalizeTombstones(segs []*segment, raw map[string][]int) (map[string][]int, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	byName := make(map[string]*segment, len(segs))
	for _, sg := range segs {
		byName[sg.name] = sg
	}
	clean := make(map[string][]int, len(raw))
	for name, tids := range raw {
		sg, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("core: manifest tombstones name unknown segment %q", name)
		}
		if len(tids) == 0 {
			continue
		}
		ts := append([]int(nil), tids...)
		sort.Ints(ts)
		out := ts[:1]
		for _, tid := range ts[1:] {
			if tid != out[len(out)-1] {
				out = append(out, tid)
			}
		}
		if out[0] < 0 || out[len(out)-1] >= sg.meta.NumTrees {
			return nil, fmt.Errorf("core: tombstone tid out of range [0, %d) in segment %q",
				sg.meta.NumTrees, name)
		}
		clean[name] = out
	}
	if len(clean) == 0 {
		return nil, nil
	}
	return clean, nil
}

// mergeTombstones folds global-tid deletes into a copy of the current
// tombstone map, returning the merged map and how many tids were newly
// tombstoned (already-deleted tids merge idempotently). Callers
// validated the tids against the stored corpus; segs is the current
// epoch's segment list, whose contiguous tid ranges locate each victim.
func mergeTombstones(old map[string][]int, segs []*segment, deletes []int) (map[string][]int, int) {
	if len(deletes) == 0 {
		return old, 0
	}
	bases := make([]int, len(segs)+1)
	for i, sg := range segs {
		bases[i+1] = bases[i] + sg.meta.NumTrees
	}
	add := make(map[string][]int)
	for _, tid := range deletes {
		si := sort.Search(len(segs), func(i int) bool { return bases[i+1] > tid })
		name := segs[si].name
		add[name] = append(add[name], tid-bases[si])
	}
	merged := make(map[string][]int, len(old)+len(add))
	for name, tids := range old {
		merged[name] = tids
	}
	newly := 0
	for name, locals := range add {
		sort.Ints(locals)
		have := merged[name]
		out := make([]int, len(have), len(have)+len(locals))
		copy(out, have)
		for _, lt := range locals {
			i := sort.SearchInts(out, lt)
			if i < len(out) && out[i] == lt {
				continue // duplicate within deletes, or already tombstoned
			}
			out = append(out, 0)
			copy(out[i+1:], out[i:])
			out[i] = lt
			newly++
		}
		merged[name] = out
	}
	return merged, newly
}

// Delete tombstones the trees with the given global tids: the manifest
// is republished with the victims recorded in its tombstone section and
// the serving epoch swaps atomically, so the trees stop matching on the
// very next query — search, count, batch, stream, key iteration and
// Tree all honor tombstones — while queries already in flight finish on
// the snapshot they pinned. Segments are immutable, so nothing is
// rewritten or reclaimed here; Compact merges the survivors and drops
// the tombstoned trees physically. Deleting an already-deleted tid is
// an idempotent no-op; the returned count is how many tids were newly
// tombstoned (0 republishes nothing). A delete on a never-segmented
// root first promotes it exactly like the first Append. Tids are
// validated against the stored corpus (including already-tombstoned
// trees — their tids remain reserved until compaction renumbers).
func (l *Live) Delete(ctx context.Context, tids []int) (int, error) {
	if len(tids) == 0 {
		return 0, fmt.Errorf("core: delete of zero tids")
	}
	_, n, err := l.Update(ctx, tids, nil, 0)
	return n, err
}

// Update applies deletes and appends trees in one atomic manifest
// publish: either both take effect for every subsequent query or —
// on any failure — neither does. deletes are global tids of the
// *current* corpus (the trees being appended are not yet addressable);
// trees, when present, build one new segment exactly as Append with the
// given shard count. Returns the new segment's build
// statistics (nil when no trees were appended) and the number of newly
// tombstoned tids. An update that changes nothing — no trees, every
// delete already tombstoned — returns without republishing.
func (l *Live) Update(ctx context.Context, deletes []int, trees []*lingtree.Tree, shards int) (*Meta, int, error) {
	if len(trees) == 0 && len(deletes) == 0 {
		return nil, 0, fmt.Errorf("core: update with no deletes and no trees")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, 0, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	cur := l.cur.Load()
	// Validate the delete set against the stored corpus before touching
	// disk, so a bad tid can never half-apply an update.
	total := l.info.Load().meta.NumTrees
	for _, tid := range deletes {
		if tid < 0 || tid >= total {
			return nil, 0, fmt.Errorf("core: delete of tid %d out of range [0, %d)", tid, total)
		}
	}
	if cur.gen == 0 {
		// Promotion commits and serves generation 1 on its own: if a
		// later step of this update fails, the in-memory generation
		// agrees with the on-disk manifest, so a retry does not promote
		// again. (A legacy root has no tombstones by construction.)
		if err := l.promoteLocked(cur.segs[0]); err != nil {
			return nil, 0, err
		}
		cur = l.cur.Load()
	}
	tombs, newly := mergeTombstones(l.tombs, cur.segs, deletes)
	if len(trees) == 0 && newly == 0 {
		return nil, 0, nil // every victim already tombstoned: nothing to publish
	}
	gen, segs := cur.gen+1, cur.segs
	var built *Meta
	if len(trees) > 0 {
		sg, b, err := l.stageSegment(ctx, gen, trees, shards)
		if err != nil {
			return nil, 0, err
		}
		segs, built = append(slices.Clip(segs), sg), b
	}
	if err := l.commitLocked(gen, segs, tombs); err != nil {
		return nil, 0, err
	}
	return built, newly, nil
}
