// Package si is the public API of the Subtree Index library — an
// implementation of "Efficient Indexing and Querying over Syntactically
// Annotated Trees" (Chubak & Rafiei, PVLDB 5(11), 2012).
//
// The library indexes corpora of constituency parse trees by their
// unique subtrees of sizes 1..MSS and answers tree-structured queries
// with parent-child (/) and ancestor-descendant (//) axes by
// decomposing them into covers and joining posting lists; with the
// default root-split coding no post-validation is needed.
//
// Quick start:
//
//	trees := si.GenerateCorpus(42, 10000) // or si.ReadTrees(file)
//	info, err := si.Build("idx", trees, si.BuildOptions{MSS: 3})
//	ix, err := si.Open("idx")
//	defer ix.Close()
//	res, err := ix.Search(ctx, "VP(VBZ(is))(NP(DT(a))(NN))")
//	for _, m := range res.Matches { ... }
//
// Search is context-first and options-carrying: pass
// WithLimit/WithOffset to page through results — on a sharded index a
// limited search stops fetching posting lists as soon as enough
// matches are merged — and cancel or deadline the context to bound a
// query's cost. Count uses a dedicated count-only path that allocates
// no match slices. The SearchResult reports per-query execution
// statistics (posting fetches, plan-cache hit, shards consulted,
// truncation) and streams matches via All().
//
// For large corpora or serving workloads, BuildOptions.Shards
// partitions the index into independently built shards that queries
// fan out across concurrently; it defaults off, matching the paper's
// single-directory setup. Index files are memory-mapped by default
// (OpenOptions.Mmap) and no user-level page cache is layered over them:
// as in the paper's setup, the operating system's page cache is the
// only one. An open Index is safe for concurrent use by any number of
// goroutines.
//
// An index ingests while it serves: Append indexes new trees into a
// fresh immutable segment and publishes it atomically, so the next
// Search sees them without any reopen; Delete tombstones trees so they
// stop matching just as immediately (Update does both in one atomic
// publish); Compact merges the surviving trees back into a single
// segment and reclaims the space; Reload picks up segments and
// tombstones published by another process. Every search runs on the
// segment set current when it started — Append, Delete, Compact and
// Close never disturb a query in flight. See docs/SEGMENTS.md for the
// full lifecycle.
//
// See the examples directory for runnable programs.
package si

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/lingtree"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// Tree is a syntactically annotated tree: a constituency parse with
// pre/post/level interval numbering. Construct trees with ParseTree,
// ReadTrees or GenerateCorpus.
type Tree = lingtree.Tree

// Query is a parsed tree query; see ParseQuery for the syntax.
type Query = query.Query

// Match is one query result: the tree identifier and the pre-order
// rank of the node the query root matched.
type Match = core.Match

// Key is a flattened canonical subtree, the index key unit.
type Key = subtree.Key

// Coding selects the posting-list scheme of an index.
type Coding = postings.Coding

// The three coding schemes of the paper. RootSplit is the recommended
// default: it stores only each subtree root's structural numbers,
// which makes the index several times smaller than SubtreeInterval and
// queries faster than both alternatives for MSS >= 2.
const (
	FilterBased     = postings.FilterBased
	RootSplit       = postings.RootSplit
	SubtreeInterval = postings.SubtreeInterval
)

// BuildOptions configure index construction.
type BuildOptions struct {
	// MSS is the maximum indexed subtree size, 1..6. Larger values
	// speed up large queries at the cost of index size; the paper
	// recommends 3..5. Zero defaults to 3.
	MSS int
	// Coding selects the posting scheme; the zero value is FilterBased,
	// so set RootSplit explicitly or use DefaultBuildOptions.
	Coding Coding
	// Shards > 1 partitions the corpus by tid into that many contiguous
	// ranges and builds one independent index directory per range,
	// concurrently (shard-0000/, shard-0001/, ...). An index opened from
	// a sharded root fans queries out across shards and merges their
	// tid-sorted results, so results are identical to a single-shard
	// build. 0 or 1 builds the paper's single-directory index.
	Shards int
}

// DefaultBuildOptions returns the recommended configuration:
// root-split coding with MSS 3.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{MSS: 3, Coding: RootSplit}
}

// BuildInfo reports what a build produced.
type BuildInfo struct {
	Keys       int   // unique subtrees indexed
	Postings   int   // total posting records
	IndexBytes int64 // B+Tree file size
	DataBytes  int64 // flattened corpus (data file) size
	Shards     int   // partitions actually built (1 = unsharded; may be fewer than requested on tiny corpora)
}

// Build constructs a Subtree Index over trees in directory dir,
// overwriting any previous index there. The corpus itself is stored
// alongside the index (the "data file"), so dir is self-contained.
// Trees are numbered by position: the i-th tree becomes tid i, whatever
// its TID field says. With BuildOptions.Shards > 1 the corpus is partitioned by tid and the
// shards are built concurrently.
func Build(dir string, trees []*Tree, opts BuildOptions) (BuildInfo, error) {
	if opts.MSS == 0 {
		opts.MSS = 3
	}
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	meta, err := core.BuildSharded(dir, trees, core.Options{
		MSS:    opts.MSS,
		Coding: opts.Coding,
	}, shards)
	if err != nil {
		return BuildInfo{}, err
	}
	return buildInfo(meta), nil
}

// buildInfo reports m as a BuildInfo; a nil m (nothing was built)
// reports zero.
func buildInfo(m *core.Meta) BuildInfo {
	if m == nil {
		return BuildInfo{}
	}
	return BuildInfo{
		Keys:       m.Keys,
		Postings:   m.Postings,
		IndexBytes: m.IndexBytes,
		DataBytes:  m.DataBytes,
		Shards:     max(m.Shards, 1),
	}
}

// Index is an opened Subtree Index — single-directory, sharded or
// segmented; all layouts open to the same API and return identical
// results. An Index is safe for concurrent use: any number of
// goroutines may call Search, Count, Query, Tree, Keys and KeyCount on
// one Index at once, concurrently with Append and Reload. Every query
// pins the segment set current when it starts, so Append, Reload and
// Close never invalidate an in-flight search; Close blocks until those
// searches finish, and calls made after Close fail cleanly.
type Index struct {
	ix *core.Live
}

// OpenOptions configure how an index is opened.
type OpenOptions struct {
	// PlanCacheSize is ignored: compiled plans are always kept, one
	// bounded map per published segment set, keyed by the query's
	// canonical text.
	//
	// Deprecated: plan caching is unconditional. The field remains
	// only because the frozen benchmark (bench/layers.go) sets it.
	PlanCacheSize int
	// Mmap selects the read backend for index files. The default
	// (MmapAuto) memory-maps them so page reads are zero-copy subslices
	// of the mapping; MmapOff forces positioned reads into pooled
	// buffers. When mapping is unavailable the open silently falls back
	// to pread — results are identical either way. Neither backend keeps
	// a user-level page cache: the operating system's is the only one,
	// as in the paper's §6.1 setup.
	Mmap MmapMode
}

// MmapMode selects the index file read backend; see OpenOptions.Mmap.
type MmapMode = core.MmapMode

// Mmap modes for OpenOptions.Mmap.
const (
	// MmapAuto (the default) memory-maps index files when possible.
	MmapAuto = core.MmapAuto
	// MmapOff forces positioned reads.
	MmapOff = core.MmapOff
)

// ErrClosed is returned (wrapped) by operations on an Index after
// Close; test with errors.Is.
var ErrClosed = core.ErrClosed

// Open opens the index stored in dir — sharded or not — with the
// default options (memory-mapped when possible).
func Open(dir string) (*Index, error) { return OpenWith(dir, OpenOptions{}) }

// OpenWith opens the index stored in dir with explicit options.
func OpenWith(dir string, opts OpenOptions) (*Index, error) {
	ix, err := core.OpenLive(dir, core.OpenOptions{Mmap: opts.Mmap})
	if err != nil {
		return nil, err
	}
	return &Index{ix: ix}, nil
}

// Close retires the index and blocks until every in-flight search has
// finished on its pinned segment set, then releases the index files.
// Searches started before Close complete correctly; calls made after
// Close return an error instead of touching closed files. Close is
// idempotent.
func (i *Index) Close() error { return i.ix.Close() }

// AppendOptions configure how Append builds its new segment; the zero
// value builds a single-partition segment.
// The index's MSS and coding always carry over.
type AppendOptions struct {
	// Shards partitions the appended segment like BuildOptions.Shards;
	// 0 or 1 builds one partition. Small incremental batches rarely
	// need more than one.
	Shards int
}

// Append indexes trees into a fresh immutable segment and publishes it
// atomically: the call builds the segment with the index's MSS and
// coding, appends it to the on-disk manifest, and swaps the serving
// set, so a search issued after Append returns sees matches in the new
// trees — without reopening the index or restarting a server over it.
// Searches already running finish on the segment set they started
// with, unaffected. The new trees are assigned the global tids
// following the current corpus, in order. Appends serialize with each
// other, Reload and Close; appending through two different processes
// at once is not supported. Returns the new segment's build
// statistics.
func (i *Index) Append(ctx context.Context, trees []*Tree) (BuildInfo, error) {
	return i.AppendWith(ctx, trees, AppendOptions{})
}

// AppendWith is Append with explicit segment build options.
func (i *Index) AppendWith(ctx context.Context, trees []*Tree, opts AppendOptions) (BuildInfo, error) {
	m, err := i.ix.Append(ctx, trees, opts.Shards)
	if err != nil {
		return BuildInfo{}, err
	}
	return buildInfo(m), nil
}

// Delete tombstones the trees with the given tids: the manifest is
// republished with the victims recorded as deleted and the serving set
// swaps atomically, so the trees stop matching — in Search, Count,
// SearchBatch, SearchStream, Keys, KeyCount and Tree alike — on the
// very next call, while searches already running finish on the
// snapshot they pinned. Nothing is rewritten: segments are immutable,
// and the tombstoned trees keep occupying disk (and their tids) until
// Compact reclaims them. Deleting an already-deleted tid is an
// idempotent no-op. Returns how many tids were newly tombstoned. An
// out-of-range tid fails the whole call before anything is published.
func (i *Index) Delete(ctx context.Context, tids ...int) (int, error) {
	return i.ix.Delete(ctx, tids)
}

// Update applies deletes and appends new trees in one atomic manifest
// publish — a correction that replaces trees is therefore never
// half-visible: every search sees either the old corpus or the new
// one. deleteTids address the current corpus (the appended trees are
// not deletable in the same call); trees may be nil for a pure delete
// and deleteTids nil for a pure append. Returns the appended segment's
// build statistics (zero when no trees were appended) and the number
// of newly tombstoned tids.
func (i *Index) Update(ctx context.Context, deleteTids []int, trees []*Tree) (BuildInfo, int, error) {
	m, newly, err := i.ix.Update(ctx, deleteTids, trees, 0)
	if err != nil {
		return BuildInfo{}, 0, err
	}
	return buildInfo(m), newly, nil
}

// CompactOptions shape a compaction run; the zero value compacts
// whenever there is more than one segment or any tombstoned tree, into
// a single-partition segment.
type CompactOptions struct {
	// Shards partitions the compacted segment like BuildOptions.Shards;
	// 0 or 1 builds one partition.
	Shards int
	// MinSegments and MinTombstones gate the run: compaction proceeds
	// when the index has at least MinSegments segments or at least
	// MinTombstones tombstoned trees, and is a no-op otherwise. Zero
	// values default to 2 and 1. Background triggers (sisrv's
	// -compact-every) raise them so small appends are not immediately
	// rewritten.
	MinSegments   int
	MinTombstones int
}

// Compact merges the surviving (non-tombstoned) trees of all segments
// into one fresh segment and publishes it atomically, replacing the
// whole segment list and clearing every tombstone: query fan-out
// returns to a single segment and the disk held by deleted trees and
// replaced segments is reclaimed — each old segment's directory is
// removed once its last in-flight search drains. Searches running
// during the compaction finish on the segment set they pinned.
// Surviving trees are renumbered to contiguous tids 0..n-1 in their
// current order (the tids a fresh Build of the survivors would
// assign), so tids held across a Compact must be re-resolved. Returns
// whether a compaction ran: false with a nil error when the
// CompactOptions thresholds report nothing to do. Compacting away the
// entire corpus is refused.
func (i *Index) Compact(ctx context.Context) (bool, error) {
	return i.CompactWith(ctx, CompactOptions{})
}

// CompactWith is Compact with explicit thresholds and segment build
// options.
func (i *Index) CompactWith(ctx context.Context, opts CompactOptions) (bool, error) {
	changed, _, err := i.ix.Compact(ctx, core.CompactOptions{
		Shards:        opts.Shards,
		MinSegments:   opts.MinSegments,
		MinTombstones: opts.MinTombstones,
	})
	return changed, err
}

// Reload re-reads the index manifest from disk and picks up segments
// and tombstones published by another process (e.g. `sibuild -append`
// or `sibuild -delete` run against a directory a server is serving):
// new segments open, delisted ones retire once their in-flight
// searches drain, the tombstone set is replaced, and the serving set
// swaps with zero downtime. Returns whether anything changed.
func (i *Index) Reload() (bool, error) { return i.ix.Reload() }

// Segments returns the number of live index segments: 1 until the
// first Append, plus one per appended (or reloaded) segment since.
func (i *Index) Segments() int { return i.ix.Segments() }

// Generation returns the index manifest's publish counter: 0 for an
// index that has never been appended to, incrementing with every
// published segment-set change.
func (i *Index) Generation() int { return i.ix.Generation() }

// MSS returns the index's maximum subtree size.
func (i *Index) MSS() int { return i.ix.Meta().MSS }

// Coding returns the index's posting scheme.
func (i *Index) Coding() Coding { return i.ix.Meta().Coding }

// NumTrees returns the number of indexed trees.
func (i *Index) NumTrees() int { return i.ix.Meta().NumTrees }

// Shards returns the number of index partitions (1 when unsharded).
func (i *Index) Shards() int { return i.ix.NumShards() }

// Info returns the build statistics of the index.
func (i *Index) Info() BuildInfo {
	m := i.ix.Meta()
	return buildInfo(&m)
}

// SearchOptions bound and shape one search; build them from
// SearchOption values (WithLimit, WithOffset, WithCountOnly). The zero
// value asks for every match. The deadline/cancellation half of the
// options travels in the context.Context every search accepts.
type SearchOptions = core.SearchOpts

// SearchOption is a functional option of Search, Query and SearchBatch.
type SearchOption func(*SearchOptions)

// WithLimit caps the number of matches returned (after any offset);
// n <= 0 means unlimited. The bound pushes down into execution twice
// over: a sharded index consults shards lazily in tid order and stops
// issuing posting fetches once the demand is met, and within each
// shard the streaming join stops decoding posting entries and
// producing intermediate rows as soon as the window is full
// (Stats.JoinRows shows the saving). Small limits over large result
// sets therefore cost a fraction of a full search.
func WithLimit(n int) SearchOption { return func(o *SearchOptions) { o.Limit = n } }

// WithOffset skips the first n matches in global (tree, root) order
// before the limit applies — result paging for serving layers.
func WithOffset(n int) SearchOption { return func(o *SearchOptions) { o.Offset = n } }

// WithCountOnly evaluates the query without materializing any match
// slice: SearchResult.Count is the exact total and Matches stays nil.
// Count is the one-call form.
func WithCountOnly() SearchOption { return func(o *SearchOptions) { o.CountOnly = true } }

// WithExplain asks the search to report how the plan executed: next to
// the strategy and the plan's estimated match cardinality, which every
// search reports, SearchStats gains a per-piece table of estimated vs.
// actually decoded posting entries (SearchStats.Pieces). Explain adds a per-piece
// counter to the hot path, so leave it off in production loops; it is
// ignored by SearchBatch.
func WithExplain() SearchOption { return func(o *SearchOptions) { o.Explain = true } }

// searchOptions folds SearchOption values into a SearchOptions.
func searchOptions(opts []SearchOption) SearchOptions {
	var o SearchOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// SearchResult is the outcome of one search: the requested window of
// Matches in (tree, root) order, the match Count (exact unless
// Stats.Truncated reports early termination), per-query execution
// Stats, and an iterator All(). Search returns it materialized —
// All() then just walks Matches; SearchStream returns it pending —
// All() is the lazily-advancing evaluation itself and Count/Stats
// finalize when it ends.
type SearchResult = core.Result

// SearchStats are per-query execution statistics: posting fetches
// issued, plan-cache hit, shards consulted, whether the result was
// truncated by a limit, the execution strategy and the planner's
// estimated match cardinality. With WithExplain they additionally carry
// per-piece estimates (see PieceStat).
type SearchStats = core.SearchStats

// PieceStat is one cover piece's explain row: the piece's index key,
// the planner's estimated posting entries, and the entries actually
// decoded during execution. Populated only under WithExplain.
type PieceStat = core.PieceStat

// Query evaluates a parsed query under ctx. Options as in Search.
func (i *Index) Query(ctx context.Context, q *Query, opts ...SearchOption) (*SearchResult, error) {
	return i.ix.SearchQuery(ctx, q, searchOptions(opts))
}

// Search parses and evaluates a query in one call. The context bounds
// evaluation: cancellation and deadlines are checked inside the join
// and scan loops, so an expired ctx aborts promptly with ctx.Err().
// The query is planned against the segment set the search pins: a
// query seen before on that set (in any sibling order) reuses its
// stored plan and skips decomposition and costing. A limited search
// pushes the bound all the way into the join: evaluation stops
// decoding postings and producing join rows once offset+limit matches
// exist, inside a shard as well as across shards.
//
//	res, err := ix.Search(ctx, "NP(DT)(NN)", si.WithLimit(10))
//	for m, err := range res.All() { ... }
func (i *Index) Search(ctx context.Context, querySrc string, opts ...SearchOption) (*SearchResult, error) {
	return i.ix.Search(ctx, querySrc, searchOptions(opts))
}

// SearchStream parses the query and returns a *pending* SearchResult:
// the call itself only plans, and iterating res.All() is the
// evaluation — each shard's posting blobs are fetched when the
// iteration first reaches that shard, and each step advances the
// streaming join just far enough to yield the next match, so the
// first match is available while most of the work is still undone.
// Shards are consulted strictly in tid order; a consumer that breaks
// early (or a WithLimit bound being reached) leaves later shards
// untouched. res.Count and res.Stats are finalized when the iteration
// ends (also on early break), res.Matches stays nil, and the iterator
// is single-use. Because evaluation is deferred, so are its failures:
// I/O errors, corrupt postings and cancellation surface as the final
// yielded error of All(), not from this call — consumers must check
// the yielded error, or a failed search reads as an empty one. This
// is what sisrv's /stream endpoint uses to put the first NDJSON byte
// on the wire before evaluation completes; prefer Search when the
// whole window is wanted anyway — it overlaps shard evaluation
// instead of streaming them one at a time. WithCountOnly is rejected:
// a count has no streaming form.
func (i *Index) SearchStream(ctx context.Context, querySrc string, opts ...SearchOption) (*SearchResult, error) {
	return i.ix.SearchStream(ctx, querySrc, searchOptions(opts))
}

// SearchBatch evaluates a batch of queries in one pass: all queries
// are planned up front (repeats and sibling permutations share one
// plan, evaluated once), then each distinct cover key's posting list
// is fetched once per shard for the whole batch — on workloads with
// shared covers this issues strictly fewer posting fetches than
// len(srcs) Search calls.
// Results[i] matches Search(ctx, srcs[i]) with the same options; any
// unparsable query fails the whole batch with an error naming its
// position. Batches optimize fetch sharing rather than early
// termination, so limits apply at the merge.
func (i *Index) SearchBatch(ctx context.Context, srcs []string, opts ...SearchOption) ([]*SearchResult, error) {
	return i.ix.SearchBatch(ctx, srcs, searchOptions(opts))
}

// Count returns the exact number of matches of a query through the
// count-only path: join output is counted directly and no match slice
// is allocated anywhere — cheaper than Search for counting, especially
// on high-cardinality queries (see BenchmarkCountOnly).
func (i *Index) Count(ctx context.Context, querySrc string) (int, error) {
	res, err := i.ix.Search(ctx, querySrc, SearchOptions{CountOnly: true})
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// Stats report an open index's serving state: cumulative counters
// (physical posting-list fetches, join rows, plan-cache activity) plus
// point-in-time gauges of the current segment set — LiveTrees,
// TombstonedTrees, Segments, SegmentBytes — which move with Append,
// Delete and Compact rather than accumulating. The batching benchmarks
// assert on PostingFetches, and sisrv's /stats endpoint reports the
// whole struct.
type Stats = core.Counters

// Stats returns the index's cumulative serving counters since Open.
func (i *Index) Stats() Stats { return i.ix.Counters() }

// Tree fetches an indexed tree by identifier (e.g. to display a match).
func (i *Index) Tree(tid int) (*Tree, error) { return i.ix.Tree(tid) }

// Keys iterates index keys in order starting at start ("" = first),
// with each key's posting count, until fn returns false. Combined with
// subtree statistics this supports mining frequent grammatical
// constructions (see examples/grammarmine).
func (i *Index) Keys(start Key, fn func(k Key, postings int) bool) error {
	return i.ix.Keys(start, fn)
}

// KeyCount returns the posting count of one key (0 when absent).
func (i *Index) KeyCount(k Key) (int, error) { return i.ix.LookupKey(k) }

// ParseQuery parses the textual query syntax: bracketed structure with
// optional // markers for ancestor-descendant edges, e.g.
//
//	NP(DT)(NN)             NP with children DT and NN
//	VP(VBZ(is))            VP -> VBZ -> word "is"
//	S(//NN(rodent))        S with a descendant NN over "rodent"
//	A/B//C                 path shorthand
func ParseQuery(src string) (*Query, error) { return query.Parse(src) }

// ParseTree parses one tree in Penn bracketed form, e.g.
// "(S (NP (NNS agouti)) (VP (VBZ is)))". The assigned identifier is tid.
func ParseTree(tid int, src string) (*Tree, error) {
	return lingtree.ParseBracketed(tid, src)
}

// ReadTrees reads a whole corpus, one bracketed tree per line; blank
// lines and '#' comments are skipped. Identifiers are assigned 0..n-1.
func ReadTrees(r io.Reader) ([]*Tree, error) {
	var out []*Tree
	rd := lingtree.NewReader(r, 0)
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// WriteTree writes one tree in bracketed form followed by a newline.
func WriteTree(w io.Writer, t *Tree) error { return lingtree.WriteBracketed(w, t) }

// GenerateCorpus deterministically generates n synthetic news-like
// parse trees (see internal/corpusgen for the grammar). Two calls with
// the same seed yield identical corpora, and a corpus of size n is a
// prefix of any larger corpus with the same seed.
func GenerateCorpus(seed uint64, n int) []*Tree {
	return corpusgen.New(seed).Trees(n)
}

// KeyOf returns the canonical index key of a child-axis-only query —
// useful with KeyCount for selectivity probing. It errors on queries
// with // edges.
func KeyOf(q *Query) (Key, error) {
	if q.HasDescendantAxis() {
		return "", fmt.Errorf("si: KeyOf requires a //-free query")
	}
	p, _ := q.Pattern(0)
	return p.Key(), nil
}
