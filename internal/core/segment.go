package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/lingtree"
	"repro/internal/planner"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// This file implements live index updates: a Live handle serves an
// ordered list of immutable *segments* — each a self-contained
// single-directory or sharded index built by the existing build
// machinery — and can grow by appending new segments while queries are
// in flight. The segment list lives in a version-3 meta.json manifest
// at the root, republished durably on every Append through the one
// publish path (publish.go), so readers never observe a half-written
// manifest; the segment-per-generation serving shape follows zoekt's
// append-only shard model. Queries fan out over the concatenation of
// every segment's leaves through the same leafSet engine the shard layer
// uses — segments are the shard merge applied one level up, so a
// single-segment index pays nothing for the extra layer.
//
// Safe handle lifetimes come from refcounted *epochs*: an epoch is one
// published segment set, and every query pins the epoch it started on,
// releasing it when it finishes (for a pending SearchStream result,
// when its All iteration ends). Close and segment retirement wait for
// those pins to drain before any file is closed, which fixes the old
// Close-vs-search race (use-after-close of pager files) as a
// by-product: a query started before Close completes correctly on its
// pinned segment set, and a query issued after Close fails cleanly
// with ErrClosed.

// ErrClosed is returned by every operation on a Live index after Close
// has been called.
var ErrClosed = errors.New("core: index is closed")

// segDirPrefix prefixes segment directory names under a segmented
// root.
const segDirPrefix = "seg-"

// segDirName returns the directory name of the segment published at
// generation gen.
func segDirName(gen int) string { return fmt.Sprintf("seg-%06d", gen) }

// segment is one immutable index unit of a Live handle: the leaves of
// a single-directory (one leaf) or sharded (one leaf per shard) index.
// refs counts the epochs referencing the segment; when it drops to
// zero the segment's files are closed via closeFn.
type segment struct {
	name   string // directory name under the root; "" = unpromoted legacy root
	meta   Meta
	leaves []*Index
	refs   atomic.Int64
	close  func(*segment)
	// removeDir marks a segment a publish or reload delisted: once the
	// last epoch referencing it drains and its files close, the
	// directory is deleted from disk. Never set on a still-listed
	// segment.
	removeDir atomic.Bool
}

// unref drops one epoch's reference, closing the segment's files when
// the last one goes.
func (sg *segment) unref() {
	if sg.refs.Add(-1) == 0 {
		sg.close(sg)
	}
}

// epoch is one published segment set: the unit queries pin. refs holds
// one reference per in-flight query plus one for being the current
// epoch; when it drains, the epoch's segment references are dropped —
// a segment kept alive only by retired epochs closes at that point.
//
// An epoch also owns the plans compiled against it: stats counts a
// key's stored postings across exactly the epoch's leaves, and plans
// maps a query's canonical text to the plan costed by those counts. A
// publish starts a new epoch with an empty map, so a plan never runs
// on a segment set other than the one it was costed for.
type epoch struct {
	segs   []*segment
	set    leafSet
	gen    int
	refs   atomic.Int64
	mss    int
	coding postings.Coding
	stats  *planner.Stats

	plansMu sync.Mutex
	plans   map[string]*Plan
}

// maxEpochPlans bounds an epoch's plan map; a full map is cleared
// wholesale rather than evicted entry by entry.
const maxEpochPlans = 4096

// plan returns q's plan costed against the epoch's stored counts and
// whether it was already stored, compiling and storing it otherwise.
// A shared q belongs to the caller and is cloned before the plan
// retains it, so later caller mutations cannot corrupt stored plans.
// Spellings equal up to sibling order share one *Plan.
func (e *epoch) plan(q *query.Query, shared bool) (*Plan, bool, error) {
	canon := q.Canonical()
	e.plansMu.Lock()
	pl, ok := e.plans[canon]
	e.plansMu.Unlock()
	if ok {
		return pl, true, nil
	}
	if shared {
		q = q.Clone()
	}
	pl, err := planner.New(q, e.mss, e.coding, e.stats)
	if err != nil {
		return nil, false, err
	}
	e.plansMu.Lock()
	if len(e.plans) >= maxEpochPlans {
		clear(e.plans)
	}
	e.plans[canon] = pl
	e.plansMu.Unlock()
	return pl, false, nil
}

// pin takes a query reference, failing if the epoch already drained
// (it was replaced and its last query finished between the caller's
// load and this call — the caller retries on the newer epoch).
func (e *epoch) pin() bool {
	for {
		n := e.refs.Load()
		if n <= 0 {
			return false
		}
		if e.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference, unreferencing the member segments when
// the epoch drains.
func (e *epoch) release() {
	if e.refs.Add(-1) == 0 {
		for _, sg := range e.segs {
			sg.unref()
		}
	}
}

// liveInfo is the immutable metadata snapshot of the current epoch,
// readable without pinning (and after Close).
type liveInfo struct {
	meta     Meta
	leaves   int
	segments int
	gen      int
	deleted  int // tombstoned trees (stored but invisible to queries)
}

// Live is the one index handle: it opens any on-disk layout —
// single-directory, sharded or segmented — and evaluates every query
// over the concatenation of the layout's leaves, with identical results
// and per-query costs whichever layout holds the corpus. It supports
// live updates: Append builds new trees into a fresh segment and
// publishes it without interrupting searches, and Reload picks up
// segments published by another process. All read methods are safe for
// concurrent use with each other and with Append/Reload; Append,
// Reload and Close serialize among themselves.
type Live struct {
	dir      string
	leafOpts OpenOptions // per-leaf options
	info     atomic.Pointer[liveInfo]
	cur      atomic.Pointer[epoch] // nil once closed

	mu     sync.Mutex // serializes Append/Update/Compact/Reload/Close and manifest writes
	closed bool

	// tombs is the canonical tombstone map (segment name -> sorted
	// segment-local tids) backing the manifest's tombstone section;
	// guarded by mu. The per-epoch TombSets that queries consult are
	// derived from it at publish time, so a retired epoch's view never
	// changes under a running query.
	tombs map[string][]int

	segWG sync.WaitGroup // one count per open segment

	// statsMu guards the open-segment registry and the retired-fetch
	// total. Counters sums over *every* open segment — not just the
	// current epoch's — so a segment delisted by Reload but still
	// pinned by a running query keeps contributing until it closes,
	// and its final count moves to retiredFetches in the same critical
	// section: the cumulative total never decreases.
	statsMu        sync.Mutex
	openSegs       map[*segment]struct{}
	retiredFetches uint64
	retiredMemo    memoStats // the cumulative memo counters of closed leaves

	closeMu  sync.Mutex
	closeErr error

	// Cumulative planning counters across every epoch: plan-map hits
	// and misses, and the estimated vs. actual rows of costed queries
	// whose result was complete.
	planHits, planMisses atomic.Uint64
	estRows, actRows     atomic.Uint64
}

// OpenLive opens the index stored in dir — segmented, sharded or
// single-directory. opts applies to every leaf; plans live once per
// epoch at the root: leaves share MSS and coding, and a plan is costed
// by counts summed over all of them, so one compiled plan serves the
// whole fan-out.
func OpenLive(dir string, opts OpenOptions) (*Live, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	l := &Live{
		dir:      dir,
		leafOpts: opts,
		openSegs: make(map[*segment]struct{}),
	}
	var segs []*segment
	gen := 0
	if meta.FormatVersion == FormatSegmented {
		if err := CheckManifest(meta); err != nil {
			return nil, fmt.Errorf("%w (in %s)", err, dir)
		}
		gen = meta.Generation
		for _, name := range meta.Segments {
			sg, err := l.openSegment(name)
			if err != nil {
				closeSegments(segs)
				return nil, fmt.Errorf("core: opening segment %s of %s: %w", name, dir, err)
			}
			segs = append(segs, sg)
		}
	} else {
		// A legacy (pre-segmentation) root serves as one unpromoted
		// segment; the first Append moves it into a generation directory.
		sg, err := l.openSegmentAt("", dir, meta)
		if err != nil {
			return nil, err
		}
		segs = []*segment{sg}
	}
	tombs, err := normalizeTombstones(segs, meta.Tombstones)
	if err != nil {
		closeSegments(segs)
		return nil, err
	}
	l.publishLocked(segs, gen, tombs)
	l.sweep(meta)
	return l, nil
}

// openSegment opens the named segment directory under the root.
func (l *Live) openSegment(name string) (*segment, error) {
	path := filepath.Join(l.dir, name)
	meta, err := readMeta(path)
	if err != nil {
		return nil, err
	}
	return l.openSegmentAt(name, path, meta)
}

// openSegmentAt opens the leaves of one segment — every shard of a
// sharded segment, or the directory itself — and registers it with the
// close tracking.
func (l *Live) openSegmentAt(name, path string, meta Meta) (*segment, error) {
	if meta.FormatVersion == FormatSegmented {
		return nil, fmt.Errorf("core: segment %s is itself segmented; nesting is not supported", path)
	}
	var leaves []*Index
	fail := func(err error) (*segment, error) {
		for _, leaf := range leaves {
			leaf.Close()
		}
		return nil, err
	}
	if meta.Shards > 0 {
		for i := 0; i < meta.Shards; i++ {
			leaf, err := OpenWith(filepath.Join(path, shardDirName(i)), l.leafOpts)
			if err != nil {
				return fail(fmt.Errorf("core: opening shard %d of %s: %w", i, path, err))
			}
			leaves = append(leaves, leaf)
		}
	} else {
		leaf, err := OpenWith(path, l.leafOpts)
		if err != nil {
			return nil, err
		}
		leaves = append(leaves, leaf)
	}
	trees := 0
	for _, leaf := range leaves {
		trees += leaf.Meta().NumTrees
	}
	if trees != meta.NumTrees {
		return fail(fmt.Errorf("core: segment %s holds %d trees, meta says %d", path, trees, meta.NumTrees))
	}
	l.segWG.Add(1)
	sg := &segment{name: name, meta: meta, leaves: leaves, close: l.closeSegment}
	l.statsMu.Lock()
	l.openSegs[sg] = struct{}{}
	l.statsMu.Unlock()
	return sg, nil
}

// closeSegment closes a drained segment's files, moving its fetch
// counters from the open-segment registry to the retired total in one
// critical section so Counters stays cumulative (and monotonic)
// across retirements.
func (l *Live) closeSegment(sg *segment) {
	var fetches uint64
	var memo memoStats
	for _, leaf := range sg.leaves {
		fetches += leaf.fetches.Load()
		memo.add(leaf.lists.stats())
	}
	memo.Lists, memo.Bytes = 0, 0 // a closed leaf's lists are freed with it
	l.statsMu.Lock()
	delete(l.openSegs, sg)
	l.retiredFetches += fetches
	l.retiredMemo.add(memo)
	l.statsMu.Unlock()
	var first error
	for _, leaf := range sg.leaves {
		if err := leaf.Close(); err != nil && first == nil {
			first = err
		}
	}
	// A delisted segment is reclaimed once its files are closed; it
	// left the manifest before its epoch was replaced, so no reader can
	// reach it anymore.
	if sg.removeDir.Load() && sg.name != "" {
		if err := disk.RemoveAll(filepath.Join(l.dir, sg.name)); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		l.closeMu.Lock()
		if l.closeErr == nil {
			l.closeErr = first
		}
		l.closeMu.Unlock()
	}
	l.segWG.Done()
}

// closeSegments force-closes segments that were opened but never
// published (open-error unwinding).
func closeSegments(segs []*segment) {
	for _, sg := range segs {
		sg.close(sg)
	}
}

// aggregateMeta folds the segment metas into the epoch-wide view: one
// segment passes through unchanged (so a plain index reports exactly
// what it always did), several sum their statistics with Shards
// holding the total leaf count.
func aggregateMeta(segs []*segment) Meta {
	if len(segs) == 1 {
		return segs[0].meta
	}
	agg := Meta{
		FormatVersion: FormatSegmented,
		MSS:           segs[0].meta.MSS,
		Coding:        segs[0].meta.Coding,
	}
	for _, sg := range segs {
		agg.Shards += len(sg.leaves)
		agg.NumTrees += sg.meta.NumTrees
		agg.Keys += sg.meta.Keys
		agg.Postings += sg.meta.Postings
		agg.IndexBytes += sg.meta.IndexBytes
		agg.DataBytes += sg.meta.DataBytes
		agg.BuildNanos += sg.meta.BuildNanos
		agg.ExtractNanos += sg.meta.ExtractNanos
		agg.LoadNanos += sg.meta.LoadNanos
	}
	return agg
}

// publishLocked installs segs as the current epoch at generation gen
// and retires the previous epoch. tombs is the normalized tombstone map
// for segs, which becomes l.tombs; its segment-local tids are split
// into per-leaf TombSets carried by the epoch's leafSet, so queries
// consult an immutable snapshot that a later Delete can never mutate. A segment of the
// previous epoch that segs drops is unlisted from then on: its
// directory is removed once its last reader drains. Callers hold l.mu
// (or are the only goroutine, during OpenLive).
func (l *Live) publishLocked(segs []*segment, gen int, tombs map[string][]int) {
	set := leafSet{offsets: make([]uint32, 1, len(segs)+1)}
	var dels []*TombSet
	deleted := 0
	for _, sg := range segs {
		segTombs := tombs[sg.name]
		deleted += len(segTombs)
		ti, base := 0, 0
		for _, leaf := range sg.leaves {
			n := leaf.Meta().NumTrees
			var local []uint32
			for ti < len(segTombs) && segTombs[ti] < base+n {
				local = append(local, uint32(segTombs[ti]-base))
				ti++
			}
			dels = append(dels, newTombSet(local))
			base += n
			set.leaves = append(set.leaves, leaf)
			set.offsets = append(set.offsets,
				set.offsets[len(set.offsets)-1]+uint32(n))
		}
		sg.refs.Add(1)
	}
	if deleted > 0 {
		set.dels = dels
	}
	meta := aggregateMeta(segs)
	meta.Generation = gen
	e := &epoch{segs: segs, set: set, gen: gen, mss: meta.MSS, coding: meta.Coding,
		stats: &planner.Stats{Count: func(k subtree.Key) (uint64, error) { return set.keyCount(k, false) }},
		plans: make(map[string]*Plan)}
	e.refs.Store(1)
	l.tombs = tombs
	l.info.Store(&liveInfo{meta: meta, leaves: len(set.leaves), segments: len(segs), gen: gen, deleted: deleted})
	if old := l.cur.Swap(e); old != nil {
		for _, sg := range old.segs {
			if !slices.Contains(segs, sg) {
				sg.removeDir.Store(true)
			}
		}
		old.release()
	}
}

// pin returns the current epoch with a query reference taken; the
// caller must release it exactly once.
func (l *Live) pin() (*epoch, error) {
	for {
		e := l.cur.Load()
		if e == nil {
			return nil, ErrClosed
		}
		if e.pin() {
			return e, nil
		}
		// The epoch drained between load and pin: a publish replaced it.
		// Retry on the newer one.
	}
}

// Meta returns the aggregated metadata of the current segment set; it
// stays readable (reporting the final pre-Close state) after Close.
func (l *Live) Meta() Meta { return l.info.Load().meta }

// NumShards reports the number of serving partitions — the total leaf
// count across live segments. A freshly built index matches its shard
// count (1 when unsharded); each appended segment adds its own leaves.
func (l *Live) NumShards() int { return l.info.Load().leaves }

// Segments reports the number of live segments (1 until the first
// Append).
func (l *Live) Segments() int { return l.info.Load().segments }

// Generation reports the manifest publish counter: 0 until the index
// is first segmented, then incrementing with every Append or picked-up
// Reload.
func (l *Live) Generation() int { return l.info.Load().gen }

// Close retires the current epoch and blocks until every in-flight
// query has released its pin, then closes all segment files and
// returns the first close error. A query started before Close runs to
// completion on its pinned segment set; operations after Close return
// ErrClosed. Close is idempotent. A pending SearchStream result whose
// All iterator is never started holds its pin forever and would block
// Close — always consume (or break out of) pending iterations.
func (l *Live) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	old := l.cur.Swap(nil)
	l.mu.Unlock()
	if old != nil {
		old.release()
	}
	l.segWG.Wait()
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	return l.closeErr
}

// Counters reports cumulative serving counters — plan-map hits and
// misses summed over every epoch, the planner's estimate-error totals,
// and posting fetches and decoded-list memo hits, admissions and
// clears summed over every open segment
// (including ones already delisted but still pinned by running
// queries) and all retired ones, totals that only ever grow — and
// the point-in-time gauges: the lifecycle gauges (live/tombstoned
// trees, segment count and bytes) of the current epoch, and the lists
// and bytes the open segments' memos hold.
func (l *Live) Counters() Counters {
	info := l.info.Load()
	c := Counters{
		PlanCacheHits:     l.planHits.Load(),
		PlanCacheMisses:   l.planMisses.Load(),
		PlanEstimatedRows: l.estRows.Load(),
		PlanActualRows:    l.actRows.Load(),
		LiveTrees:         info.meta.NumTrees - info.deleted,
		TombstonedTrees:   info.deleted,
		Segments:          info.segments,
		SegmentBytes:      info.meta.IndexBytes + info.meta.DataBytes,
	}
	if e := l.cur.Load(); e != nil {
		c.MmapLeaves = e.set.mappedLeaves()
	}
	l.statsMu.Lock()
	c.PostingFetches = l.retiredFetches
	memo := l.retiredMemo
	for sg := range l.openSegs {
		for _, leaf := range sg.leaves {
			c.PostingFetches += leaf.fetches.Load()
			memo.add(leaf.lists.stats())
		}
	}
	l.statsMu.Unlock()
	c.ListMemoLists, c.ListMemoBytes = memo.Lists, memo.Bytes
	c.ListMemoHits, c.ListMemoAdmissions, c.ListMemoClears = memo.Hits, memo.Admissions, memo.Clears
	return c
}

// Search pins the current segment set, parses src, plans it against
// that set's stored counts (reusing the set's stored plan of any spelling
// equal up to sibling order) and evaluates it under ctx with the given
// bounds.
func (l *Live) Search(ctx context.Context, src string, opts SearchOpts) (*Result, error) {
	e, err := l.pin()
	if err != nil {
		return nil, err
	}
	defer e.release()
	pl, hit, err := l.planText(e, src)
	if err != nil {
		return nil, err
	}
	return l.searchPlan(ctx, e, pl, opts, hit, nil)
}

// SearchQuery evaluates an already-parsed query across the live
// segments under ctx with the given bounds.
func (l *Live) SearchQuery(ctx context.Context, q *query.Query, opts SearchOpts) (*Result, error) {
	if q.Size() == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	e, err := l.pin()
	if err != nil {
		return nil, err
	}
	defer e.release()
	pl, hit, err := l.plan(e, q, true)
	if err != nil {
		return nil, err
	}
	return l.searchPlan(ctx, e, pl, opts, hit, nil)
}

// plan plans q on the pinned epoch e (see epoch.plan), counting the
// lookup as a plan-map hit or miss.
func (l *Live) plan(e *epoch, q *query.Query, shared bool) (*Plan, bool, error) {
	pl, hit, err := e.plan(q, shared)
	if hit {
		l.planHits.Add(1)
	} else {
		l.planMisses.Add(1)
	}
	return pl, hit, err
}

// planText parses src and plans it on the pinned epoch e.
func (l *Live) planText(e *epoch, src string) (*Plan, bool, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, false, err
	}
	return l.plan(e, q, false)
}

// searchPlan runs one compiled plan on the pinned epoch e, through the
// per-leaf fetch memos of a batch when memos is non-nil. A complete
// result of a costed plan feeds the planner's estimate-error counters;
// a truncated one is skipped, since its Count is only a prefix.
func (l *Live) searchPlan(ctx context.Context, e *epoch, pl *Plan, opts SearchOpts, hit bool, memos []fetchMemo) (*Result, error) {
	res, err := e.set.searchPlan(ctx, pl, opts, hit, memos)
	if err == nil && pl.Costed && !res.Stats.Truncated {
		l.estRows.Add(pl.EstRows)
		l.actRows.Add(uint64(res.Count))
	}
	return res, err
}

// SearchStream parses src and returns a *pending* Result over the
// current segment set: evaluation advances only as the caller iterates
// Result.All, with the first match available while the join is still
// running. Leaves are consulted strictly in tid order, one at a time,
// each through the streaming join — a consumer that stops early (or a
// Limit that is reached) leaves later leaves unopened and later
// postings undecoded. Count and Stats are finalized when the iteration
// ends. CountOnly is rejected: counting is a materializing operation
// (use Search). The epoch pin is held until the All iteration ends —
// also on early break — so a concurrent Append or Close cannot retire
// the segments mid-stream; an iterator that is never started never
// releases its pin.
func (l *Live) SearchStream(ctx context.Context, src string, opts SearchOpts) (*Result, error) {
	e, err := l.pin()
	if err != nil {
		return nil, err
	}
	pl, hit, err := l.planText(e, src)
	if err != nil {
		e.release()
		return nil, err
	}
	res, err := newStreamResult(ctx, e.set, pl, opts, hit)
	if err != nil {
		e.release()
		return nil, err
	}
	res.stream.release = e.release
	return res, nil
}

// SearchBatch evaluates a batch of textual queries across the live
// segments under ctx. Every query is planned on the one pinned segment
// set — repeated and sibling-permuted spellings resolve to one plan —
// and each distinct plan is then evaluated once, in query order,
// through the same searchPlan as Search, with a fetch memo per leaf in
// front of the B+Tree: a cover key the batch's plans share is read
// once per leaf. Each plan is bounded by opts exactly as Search bounds
// it — a window consults leaves lazily and stops its joins at the
// window — so Results keep query order and each is identical to Search
// on that element. Each distinct plan's Stats are its own
// evaluation's, explain table included: its fetches are the physical
// reads it made, so a key served from the memo counts for the first
// query that read it. A repeat reports 0 fetches and 0 join rows.
func (l *Live) SearchBatch(ctx context.Context, srcs []string, opts SearchOpts) ([]*Result, error) {
	e, err := l.pin()
	if err != nil {
		return nil, err
	}
	defer e.release()
	plans := make([]*Plan, len(srcs))
	hits := make([]bool, len(srcs))
	for i, src := range srcs {
		if plans[i], hits[i], err = l.planText(e, src); err != nil {
			return nil, fmt.Errorf("core: batch query %d %q: %w", i, src, err)
		}
	}
	memos := make([]fetchMemo, len(e.set.leaves))
	for i := range memos {
		memos[i] = fetchMemo{}
	}
	done := make(map[*Plan]*Result, len(plans))
	out := make([]*Result, len(plans))
	for i, pl := range plans {
		if first, ok := done[pl]; ok {
			r := *first
			r.Stats.PlanCacheHit = hits[i]
			r.Stats.PostingFetches, r.Stats.JoinRows = 0, 0
			out[i] = &r
			continue
		}
		res, err := l.searchPlan(ctx, e, pl, opts, hits[i], memos)
		if err != nil {
			return nil, err
		}
		done[pl], out[i] = res, res
	}
	return out, nil
}

// LookupKey sums the key's live posting count over all live segments.
func (l *Live) LookupKey(k subtree.Key) (int, error) {
	e, err := l.pin()
	if err != nil {
		return 0, err
	}
	defer e.release()
	n, err := e.set.keyCount(k, true)
	return int(n), err
}

// Keys iterates the union of all live segments' keys in ascending
// order with summed posting counts, until fn returns false.
func (l *Live) Keys(start subtree.Key, fn func(k subtree.Key, count int) bool) error {
	e, err := l.pin()
	if err != nil {
		return err
	}
	defer e.release()
	return e.set.keys(start, fn)
}

// Tree fetches the tree with global tid, routing to the owning
// segment leaf.
func (l *Live) Tree(tid int) (*lingtree.Tree, error) {
	e, err := l.pin()
	if err != nil {
		return nil, err
	}
	defer e.release()
	return e.set.tree(tid)
}

// Append builds trees into a fresh immutable segment — sharded into
// the given number of partitions, as in BuildOptions — publishes it in
// the manifest, and atomically swaps the serving epoch so subsequent
// queries see the new trees without reopening anything. In-flight
// queries finish on the segment set they pinned. The new trees receive
// the global tids following the current corpus. The first Append to a
// legacy (single-directory or sharded) root first promotes it: its
// files are linked into a generation directory and a version-3
// manifest takes their place at the root. Appends serialize;
// concurrent appends from other processes are not coordinated and must
// be avoided (the manifest write is last-wins). The index's MSS and coding carry over
// to the new segment. Returns the new segment's build statistics.
// Append is Update with no deletes; Delete is Update with no trees.
func (l *Live) Append(ctx context.Context, trees []*lingtree.Tree, shards int) (*Meta, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("core: append of zero trees")
	}
	built, _, err := l.Update(ctx, nil, trees, shards)
	return built, err
}

// Reload re-reads the manifest from disk and picks up segments and
// tombstones published by another process (e.g. sibuild -append or
// sibuild -delete while sisrv serves): newly listed segments are
// opened, delisted ones are retired — their files close once the last
// in-flight query pinning them finishes — the tombstone section
// replaces the in-memory one, and the serving epoch swaps with zero
// downtime. Returns whether anything changed (false when the on-disk
// generation already matches; every delete and compaction bumps the
// generation, so tombstone changes are never missed). The on-disk
// manifest must be segmented and agree on MSS and coding; a full
// offline rebuild requires reopening the index instead. A successful
// reload sweeps what the manifest no longer names, as OpenLive does.
func (l *Live) Reload() (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false, ErrClosed
	}
	man, err := readMeta(l.dir)
	if err != nil {
		return false, err
	}
	if man.FormatVersion != FormatSegmented {
		return false, fmt.Errorf("core: reload needs a segmented manifest, found format %d; reopen the index after offline rebuilds", man.FormatVersion)
	}
	if err := CheckManifest(man); err != nil {
		return false, err
	}
	cur := l.cur.Load()
	if man.Generation == cur.gen {
		l.sweep(man)
		return false, nil
	}
	meta := l.info.Load().meta
	if man.MSS != meta.MSS || man.Coding != meta.Coding {
		return false, fmt.Errorf("core: manifest changed mss/coding (%d/%v -> %d/%v); reopen the index",
			meta.MSS, meta.Coding, man.MSS, man.Coding)
	}
	byName := make(map[string]*segment, len(cur.segs))
	for _, sg := range cur.segs {
		byName[sg.name] = sg
	}
	var newSegs, fresh []*segment
	for _, name := range man.Segments {
		if sg, ok := byName[name]; ok {
			newSegs = append(newSegs, sg)
			continue
		}
		sg, err := l.openSegment(name)
		if err != nil {
			closeSegments(fresh)
			return false, fmt.Errorf("core: reloading segment %s: %w", name, err)
		}
		newSegs = append(newSegs, sg)
		fresh = append(fresh, sg)
	}
	tombs, err := normalizeTombstones(newSegs, man.Tombstones)
	if err != nil {
		closeSegments(fresh)
		return false, err
	}
	l.publishLocked(newSegs, man.Generation, tombs)
	l.sweep(man)
	return true, nil
}
