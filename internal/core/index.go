package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/join"
	"repro/internal/lingtree"
	"repro/internal/postings"
	"repro/internal/subtree"
	"repro/internal/treebank"
)

// Index is one opened, read-only index leaf: a single directory's
// B+Tree and data file. It evaluates plans compiled at the root — Live
// is the handle that plans, fans out over leaves and merges.
type Index struct {
	meta    Meta
	tree    *btree.Tree
	store   *treebank.Store
	fetches atomic.Uint64 // physical posting-list reads issued by query evaluation
	lists   *listMemo     // decoded root-split lists (see listmemo.go); nil under the other codings
}

// Match is one query result: the tree and the pre number of the node
// the query root maps to. The paper's "number of matches" counts these
// pairs.
type Match = join.Match

// MmapMode selects the index file's read backend.
type MmapMode int

// Mmap modes. The zero value requests mapping (with silent pread
// fallback when the platform or file cannot be mapped), so every open
// path gets the zero-copy read path without opting in.
const (
	// MmapAuto memory-maps index files when possible and falls back to
	// positioned reads otherwise — the default.
	MmapAuto MmapMode = iota
	// MmapOff forces positioned reads (pread); use it when mappings are
	// undesirable, e.g. index files on network filesystems where a
	// truncation would fault the process instead of erroring.
	MmapOff
)

// OpenOptions configure how an index is opened.
type OpenOptions struct {
	// Mmap selects the read backend for index files; the zero value
	// (MmapAuto) maps them when possible. No user-level page cache is
	// layered over either backend (the paper's §6.1 setup): the kernel's
	// is the only one. What a root-split leaf keeps on the heap is
	// decoded data, not pages — the arrays of posting lists its queries
	// repeat (see listMemo), bounded by twice its index file.
	Mmap MmapMode
}

// readMeta loads and validates the meta.json of an index directory.
func readMeta(dir string) (Meta, error) {
	mb, err := os.ReadFile(filepath.Join(dir, metaFileName))
	if err != nil {
		return Meta{}, err
	}
	var meta Meta
	if err := json.Unmarshal(mb, &meta); err != nil {
		return Meta{}, fmt.Errorf("core: corrupt meta in %s: %w", dir, err)
	}
	if meta.FormatVersion == 0 {
		meta.FormatVersion = FormatSingle // pre-versioning index
	}
	if meta.FormatVersion > CurrentFormatVersion {
		return Meta{}, fmt.Errorf("core: index %s has format version %d, newer than supported %d",
			dir, meta.FormatVersion, CurrentFormatVersion)
	}
	return meta, nil
}

// OpenWith opens the single-directory index leaf stored in dir. Query
// an index of any layout through OpenLive.
func OpenWith(dir string, opts OpenOptions) (*Index, error) {
	meta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if meta.Shards > 0 {
		return nil, fmt.Errorf("core: %s is a sharded index root (%d shards), not a leaf; use OpenLive", dir, meta.Shards)
	}
	if meta.FormatVersion == FormatSegmented {
		return nil, fmt.Errorf("core: %s is a segmented index root (%d segments), not a leaf; use OpenLive", dir, len(meta.Segments))
	}
	if meta.Coding == postings.RootSplit && meta.RootSkipBlock != postings.RootSkipBlock {
		return nil, fmt.Errorf("core: %s holds root-split posting lists without the skip tables this version reads (skip block %d, want %d): rebuild the index",
			dir, meta.RootSkipBlock, postings.RootSkipBlock)
	}
	tr, err := btree.OpenWith(filepath.Join(dir, indexFileName),
		btree.Options{Mmap: opts.Mmap != MmapOff})
	if err != nil {
		return nil, err
	}
	store, err := treebank.OpenStore(dir)
	if err != nil {
		tr.Close()
		return nil, err
	}
	ix := &Index{meta: meta, tree: tr, store: store}
	if meta.Coding == postings.RootSplit {
		ix.lists = newListMemo(tr.Stats().SizeBytes)
	}
	return ix, nil
}

// Meta returns the index metadata recorded at build time.
func (ix *Index) Meta() Meta { return ix.meta }

// Close releases the index and data files.
func (ix *Index) Close() error {
	err1 := ix.tree.Close()
	err2 := ix.store.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Counters are cumulative serving statistics of an open index handle;
// sisrv's /stats endpoint and the batching benchmarks read them.
type Counters struct {
	// PostingFetches counts physical posting-list reads (B+Tree point
	// lookups) issued by query evaluation. Batched execution fetches
	// each distinct key once per shard, so a batch with shared covers
	// advances this counter less than the equivalent sequential runs.
	PostingFetches uint64 `json:"posting_fetches"`
	// PlanCacheHits counts searches whose plan was already stored on
	// the epoch they pinned, skipping cover decomposition and costing.
	PlanCacheHits uint64 `json:"plan_cache_hits"`
	// PlanCacheMisses counts searches that compiled their plan against
	// the pinned epoch's stored counts — every first search of a query
	// after a publish is one.
	PlanCacheMisses uint64 `json:"plan_cache_misses"`
	// PlanEstimatedRows accumulates the planner's estimated join
	// cardinality over costed queries whose result was complete (not
	// truncated by a limit); together with PlanActualRows it exposes
	// the cost model's aggregate estimate error.
	PlanEstimatedRows uint64 `json:"plan_estimated_rows"`
	// PlanActualRows accumulates the actual match counts of the same
	// costed queries PlanEstimatedRows covers.
	PlanActualRows uint64 `json:"plan_actual_rows"`
	// LiveTrees is the number of searchable trees: stored trees minus
	// tombstoned ones. Unlike the cumulative counters above, the four
	// fields from here on are point-in-time gauges of the serving state
	// — they move in both directions as updates and compactions land.
	LiveTrees int `json:"live_trees"`
	// TombstonedTrees is the number of logically deleted trees still
	// stored in segments — the reclaim debt a compaction clears.
	TombstonedTrees int `json:"tombstoned_trees"`
	// Segments is the number of live segments queries fan out over
	// (1 for a directory that was never appended to).
	Segments int `json:"segments"`
	// SegmentBytes is the on-disk footprint of the live segment set:
	// index plus data bytes, tombstoned trees included until compaction
	// reclaims them.
	SegmentBytes int64 `json:"segment_bytes"`
	// MmapLeaves is the number of index leaves currently served from a
	// memory mapping (a gauge: compactions and reloads reopen leaves).
	// Zero with the mmap backend off or unavailable on the platform.
	MmapLeaves int `json:"mmap_leaves"`
	// ListMemoLists and ListMemoBytes are gauges of the root-split
	// leaves' memos of decoded posting lists: the lists the open leaves
	// hold and their heap bytes (each leaf's bounded by twice its index
	// file). Zero under the other codings.
	ListMemoLists int   `json:"list_memo_lists"`
	ListMemoBytes int64 `json:"list_memo_bytes"`
	// ListMemoHits counts piece reads served from a held decoded list
	// instead of decoding the fetched posting value; ListMemoAdmissions
	// counts lists decoded into a memo (on their second fetch), and
	// ListMemoClears memos emptied wholesale because an admission would
	// have passed the bound. Cumulative, like PostingFetches.
	ListMemoHits       uint64 `json:"list_memo_hits"`
	ListMemoAdmissions uint64 `json:"list_memo_admissions"`
	ListMemoClears     uint64 `json:"list_memo_clears"`
}

// Mapped reports whether the index leaf is served from a memory
// mapping.
func (ix *Index) Mapped() bool { return ix.tree.Mapped() }

// postingGetter returns the raw count-prefixed posting blob of an index
// key. A search reads straight from the B+Tree through a counting
// getter; a batch puts each leaf's fetchMemo in front of it, so keys
// its plans share are fetched once per leaf.
type postingGetter func(k subtree.Key) ([]byte, bool, error)

// getPosting reads one posting value from the B+Tree, counting the
// physical fetch.
func (ix *Index) getPosting(k subtree.Key) ([]byte, bool, error) {
	ix.fetches.Add(1)
	return ix.tree.Get([]byte(k))
}

// fetchMemo remembers one leaf's posting reads over a batch, absent
// keys included, so a key that several of the batch's plans share is
// read from the B+Tree once per leaf. It is not safe for concurrent
// use and needs no lock: a batch evaluates its plans one after
// another, and Gather returns only after every eval it started has
// returned, so each leaf's memo is used by one goroutine at a time.
type fetchMemo map[subtree.Key]fetched

// fetched is one memoized posting read.
type fetched struct {
	val   []byte
	found bool
}

// wrap returns get behind the memo.
func (m fetchMemo) wrap(get postingGetter) postingGetter {
	return func(k subtree.Key) ([]byte, bool, error) {
		if f, ok := m[k]; ok {
			return f.val, f.found, nil
		}
		val, found, err := get(k)
		if err != nil {
			return nil, false, err
		}
		m[k] = fetched{val: val, found: found}
		return val, found, nil
	}
}

// evalOpts bound one plan evaluation on one index.
type evalOpts struct {
	// countOnly skips materializing matches; only the exact count is
	// computed. Mutually exclusive with target.
	countOnly bool
	// target, when positive, stops evaluation once that many matches
	// have been produced. The returned slice holds at most target+1
	// matches — the extra one distinguishes "exactly target matches
	// exist" from a truncated result, preserving Window semantics.
	target int
	// dels, when non-nil, is the leaf's tombstone set: posting entries
	// of tombstoned tids are dropped at decode time, before permutation
	// expansion, joining or validation, so a deleted tree costs no join
	// rows and can never surface as a match.
	dels *TombSet
	// pieceReads, when non-nil, accumulates per-piece actual
	// cardinalities (posting entries the evaluation consumed, indexed like
	// pl.Pieces) for explain output. The slice is shared across the concurrent leaf
	// evaluations of a sharded or segmented query, hence the atomics; it
	// is only allocated when a caller asked for explain, so the normal
	// path pays nothing.
	pieceReads []atomic.Uint64
}

// notePieceRead credits n consumed entries to piece i for explain
// output; a no-op when explain was not requested.
func (ev *evalOpts) notePieceRead(i, n int) {
	if ev.pieceReads != nil && i < len(ev.pieceReads) {
		ev.pieceReads[i].Add(uint64(n))
	}
}

// evalPlan evaluates a compiled plan by draining its match stream
// (streamPlan) — the one evaluator every coding and every bound shares:
// to completion, or with ev.target set only until target+1 matches
// exist, so unneeded posting entries are never decoded and unneeded
// join rows never produced. It returns the matches in ascending
// (tid, root) order, their count and the join rows spent (posting
// entries decoded plus intermediate rows; trees validated under the
// filter coding); with ev.countOnly the match slice stays nil (no
// per-match allocation) and only the count is meaningful. ctx cancels
// evaluation between the posting fetches and inside the stream.
func (ix *Index) evalPlan(ctx context.Context, pl *Plan, get postingGetter, ev evalOpts) ([]Match, int, int, error) {
	ms, err := ix.streamPlan(ctx, pl, get, ev)
	if err != nil {
		return nil, 0, 0, err
	}
	bound := 0 // 0 = drain
	var out []Match
	if !ev.countOnly && ev.target > 0 {
		bound = ev.target
		out = make([]Match, 0, min(bound, 63)+1) // bound+1 would overflow at MaxInt
	}
	count := 0
	//silint:ignore ctxloop ms.Next observes ctx: both stream producers poll cancellation per block and surface it via ms.Err
	for bound == 0 || count <= bound {
		m, ok := ms.Next()
		if !ok {
			break
		}
		count++
		if !ev.countOnly {
			out = append(out, m)
		}
	}
	if err := ms.Err(); err != nil {
		return nil, 0, 0, err
	}
	// Explain's per-piece actuals are the join stream's own logical
	// positions, read once the drain has ended (the filter coding credits
	// its pieces as it intersects them).
	if js, ok := ms.(*join.Stream); ok && ev.pieceReads != nil {
		for i := range pl.Pieces {
			ev.notePieceRead(i, js.SourceRead(i))
		}
	}
	return out, count, ms.Rows(), nil
}

// minRecordBytes is the smallest wire size of one posting record under
// each coding: a root-split record is four varints (tid marker, pre,
// post, level), a subtree-interval record at least six (tid delta,
// instance size, one node's four numbers), a filter record one tid
// delta. A count prefix claiming more records than the payload has
// bytes for is corrupt.
func minRecordBytes(coding postings.Coding) int {
	switch coding {
	case postings.RootSplit:
		return 4
	case postings.SubtreeInterval:
		return 6
	default:
		return 1
	}
}

// splitCount splits one key's posting value into its count prefix and
// payload. Nothing is sized by the count, but a prefix claiming more
// records than the payload can hold under coding marks the value as
// corrupt — so the count always fits an int.
func splitCount(k subtree.Key, val []byte, coding postings.Coding) (count int, payload []byte, err error) {
	c, n := binary.Uvarint(val)
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: corrupt posting count for %q", k)
	}
	payload = val[n:]
	if c > uint64(len(payload)/minRecordBytes(coding)) {
		return 0, nil, fmt.Errorf("core: corrupt posting count for %q: %d records in %d bytes", k, c, len(payload))
	}
	return int(c), payload, nil
}

// postingPayload fetches one key's posting blob and splits off the
// count prefix — the header handling shared by the join and filter
// fetch paths; found=false means the key is absent.
func postingPayload(k subtree.Key, get postingGetter, coding postings.Coding) (count int, payload []byte, found bool, err error) {
	val, found, err := get(k)
	if err != nil || !found {
		return 0, nil, false, err
	}
	count, payload, err = splitCount(k, val, coding)
	return count, payload, err == nil, err
}

// filterCandidates runs the filter coding's candidate phase (the join
// phase of §4.4.1): fetch each piece's tid list (skipping tombstoned
// tids) and intersect. Lists are fetched in the plan's join order and
// the phase aborts as soon as one comes back absent or empty — the
// intersection is already known to be empty, so the remaining (on a
// costed plan, larger) lists are never read; the candidate list is then
// nil.
func (ix *Index) filterCandidates(ctx context.Context, pl *Plan, get postingGetter, ev evalOpts) ([]uint32, error) {
	var lists [][]uint32
	for _, pi := range pl.Order {
		pp := pl.Pieces[pi]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, payload, ok, err := postingPayload(pp.Key, get, postings.FilterBased)
		if err != nil || !ok {
			return nil, err
		}
		var tids []uint32
		decoded := 0
		dels := ev.dels.Scan()
		it := postings.NewFilterIterator(payload)
		for it.Next() {
			// A filter posting list is unbounded; poll cancellation
			// every 1024 decoded entries so an abandoned query stops
			// mid-list instead of after the full scan.
			if decoded++; decoded&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if dels.Has(it.TID()) {
				continue
			}
			tids = append(tids, it.TID())
		}
		if err := it.Err(); err != nil {
			return nil, err
		}
		ev.notePieceRead(pi, len(tids))
		if len(tids) == 0 {
			return nil, nil // empty list: empty intersection
		}
		lists = append(lists, tids)
	}
	return intersect(lists), nil
}

// intersect computes the intersection of sorted tid lists, smallest
// list first (pairwise merge, §4.4.1's join phase).
func intersect(lists [][]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	// Start from the smallest list for cheap early termination.
	smallest := 0
	for i := 1; i < len(lists); i++ {
		if len(lists[i]) < len(lists[smallest]) {
			smallest = i
		}
	}
	cur := lists[smallest]
	for i, l := range lists {
		if i == smallest {
			continue
		}
		cur = intersect2(cur, l)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// intersect2 merges two sorted tid lists into their intersection.
func intersect2(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// lookupKeyLive returns the posting count for an index key, or 0 if
// absent. With dels non-nil the posting payload is decoded and only
// records of surviving trees counted — the count a rebuild of the
// survivors would store.
func (ix *Index) lookupKeyLive(k subtree.Key, dels *TombSet) (int, error) {
	val, found, err := ix.tree.Get([]byte(k))
	if err != nil || !found {
		return 0, err
	}
	count, payload, err := splitCount(k, val, ix.meta.Coding)
	if err != nil || dels == nil {
		return count, err
	}
	return ix.liveCount(payload, dels)
}

// liveCount decodes one key's posting payload and counts the records
// whose tree survives dels.
func (ix *Index) liveCount(payload []byte, set *TombSet) (int, error) {
	live := 0
	dels := set.Scan()
	switch ix.meta.Coding {
	case postings.FilterBased:
		it := postings.NewFilterIterator(payload)
		for it.Next() {
			if !dels.Has(it.TID()) {
				live++
			}
		}
		if err := it.Err(); err != nil {
			return 0, err
		}
	case postings.RootSplit:
		it := postings.NewRootIterator(payload)
		for it.Next() {
			if !dels.Has(it.Entry().TID) {
				live++
			}
		}
		if err := it.Err(); err != nil {
			return 0, err
		}
	case postings.SubtreeInterval:
		it := postings.NewIntervalIterator(payload)
		for it.Next() {
			if !dels.Has(it.TID()) {
				live++
			}
		}
		if err := it.Err(); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("core: live count with coding %v", ix.meta.Coding)
	}
	return live, nil
}

// Tree fetches indexed tree tid from the data file.
func (ix *Index) Tree(tid int) (*lingtree.Tree, error) { return ix.store.Tree(tid) }

// KeyIter is a pull-style cursor over (key, posting count) pairs in
// ascending key order; the leaf merge drives one per leaf. With a
// tombstone set attached, counts are live posting counts and keys
// whose postings are all tombstoned are skipped — the iteration a
// rebuild of the survivors would produce.
type KeyIter struct {
	ix    *Index
	it    *btree.Iterator
	dels  *TombSet
	key   subtree.Key
	count int
	err   error
}

// keyIterLive returns a cursor positioned before the first key >= start
// ("" = first key overall), filtered by a tombstone set (nil = none).
// Call Next to advance.
func (ix *Index) keyIterLive(start subtree.Key, dels *TombSet) *KeyIter {
	return &KeyIter{ix: ix, it: ix.tree.Iterator([]byte(start)), dels: dels}
}

// Next advances to the next key, returning false at the end or on error.
func (k *KeyIter) Next() bool {
	for {
		if k.err != nil || !k.it.Next() {
			if k.err == nil {
				k.err = k.it.Err()
			}
			return false
		}
		key := subtree.Key(k.it.Key())
		live, payload, err := splitCount(key, k.it.Value(), k.ix.meta.Coding)
		if k.err = err; err != nil {
			return false
		}
		if k.dels != nil {
			live, k.err = k.ix.liveCount(payload, k.dels)
			if k.err != nil {
				return false
			}
			if live == 0 {
				continue // every posting tombstoned: the key no longer exists
			}
		}
		k.key = key
		k.count = live
		return true
	}
}

// Key returns the current key; valid after a true Next.
func (k *KeyIter) Key() subtree.Key { return k.key }

// Count returns the current key's posting count.
func (k *KeyIter) Count() int { return k.count }

// Err reports any error encountered while iterating.
func (k *KeyIter) Err() error { return k.err }
