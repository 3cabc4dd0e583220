package core

import (
	"context"
	"fmt"
	"iter"
	"math"
	"sync/atomic"

	"repro/internal/subtree"
)

// This file is the search execution path over a leafSet: context-first,
// options-carrying, limit-aware. The shape follows production
// code-search engines (zoekt's Searcher takes ctx + SearchOptions with
// display limits): callers say how many matches they need and how long
// they will wait, and the engine stops fetching posting pages once the
// demand is met.

// SearchOpts bound one search. The zero value asks for everything:
// every match, no offset, full materialization.
type SearchOpts struct {
	// Limit caps the number of matches returned (after Offset); <= 0
	// means unlimited. On a sharded index a limit turns the fan-out
	// into a lazy in-order shard consultation (lookahead-pipelined)
	// that stops launching shards — and so stops issuing their
	// posting fetches — once Offset+Limit matches are merged.
	Limit int
	// Offset skips that many leading matches in global (tid, root)
	// order before Limit applies — cheap paging for serving.
	Offset int
	// CountOnly skips materializing matches entirely: the Result
	// carries only the exact total count and a nil match slice, and no
	// per-match allocation happens anywhere on the path. Limit and
	// Offset are ignored — a count is always exact.
	CountOnly bool
	// Explain asks for per-piece planner diagnostics: the result's
	// Stats.Pieces records each cover piece's estimated vs. actual
	// cardinality. Off by default — the tracking slice is only
	// allocated when set, so the normal path pays nothing. Ignored by
	// batch searches.
	Explain bool
}

// Target returns the number of leading matches that must be merged
// before evaluation may stop: Offset+Limit, or 0 for "all". The sum
// saturates at math.MaxInt — a window that far out is simply never
// filled — so no Offset can wrap it negative and silently turn a
// limited search into a full fan-out. Exported so the cluster router
// stops at exactly the engine's target.
func (o SearchOpts) Target() int {
	if o.Limit <= 0 {
		return 0
	}
	if o.Offset > math.MaxInt-o.Limit {
		return math.MaxInt
	}
	return o.Limit + max(o.Offset, 0)
}

// SearchStats describe how one search executed — the per-query
// counterpart of the handle-wide cumulative Counters.
type SearchStats struct {
	// PostingFetches is the number of physical posting-list reads this
	// search issued. In a batch, a key its queries share is read once
	// per leaf and counted by the first query that read it.
	PostingFetches uint64 `json:"posting_fetches"`
	// PlanCacheHit reports that the query reused the plan already
	// compiled on its epoch, skipping decomposition and costing.
	PlanCacheHit bool `json:"plan_cache_hit"`
	// ShardsConsulted is the number of index partitions evaluated;
	// under a Limit it can be less than the shard count, which is
	// exactly where the fetch savings come from.
	ShardsConsulted int `json:"shards_consulted"`
	// Truncated reports that the result is an incomplete prefix: a
	// Limit cut materialization short or stopped the shard scan before
	// every partition was consulted. Count is then a lower bound on
	// the total number of matches. It is not marshalled: the server
	// reports it beside the stats, on the result.
	Truncated bool `json:"-"`
	// JoinRows measures join work: posting entries decoded plus
	// intermediate rows produced by join steps, summed over the shards
	// consulted. Limits push down into the join itself, so whenever a
	// limit truncates the result the search reports strictly fewer rows
	// than the unlimited run of the same query — the in-shard half of
	// early termination, next to the cross-shard fetch savings. (A limit
	// the result fits inside does all the work and saves nothing.)
	JoinRows uint64 `json:"join_rows"`
	// Strategy is the execution mode the query ran under: "filter"
	// (intersect and validate) on a filter-coded index, "stream" (the
	// tree-at-a-time join) otherwise.
	Strategy string `json:"strategy,omitempty"`
	// EstimatedRows is the planner's estimated distinct-match
	// cardinality for the query; 0 when the plan was uncosted.
	EstimatedRows uint64 `json:"estimated_rows,omitempty"`
	// Pieces holds per-piece explain records, in plan-piece order; nil
	// unless SearchOpts.Explain was set.
	Pieces []PieceStat `json:"pieces,omitempty"`
}

// PieceStat is one cover piece's explain record: the index key the
// piece fetches, its stored posting count on the segment set the plan
// was costed against (the planner's estimate), and the entries
// actually decoded for it during the search (summed over consulted
// shards; less than the stored postings when early termination or an
// early abort skipped work).
type PieceStat struct {
	// Key is the piece's index key (canonical subtree text).
	Key string `json:"key"`
	// Est is the planner's estimated entry count; 0 on uncosted plans.
	Est uint64 `json:"est"`
	// Actual is the number of the piece's posting entries the evaluation
	// consumed: those a one-at-a-time decode would have produced, not the
	// few decoded ahead of the join into its window.
	Actual uint64 `json:"actual"`
}

// planStats fills the Stats' planner-facing fields from the compiled
// plan: the strategy, the estimated cardinality (0 on an uncosted
// plan), and — when reads is non-nil (Explain) — the per-piece
// estimated vs. actual table.
func planStats(stats *SearchStats, pl *Plan, reads []atomic.Uint64) {
	stats.Strategy = pl.Strategy.String()
	stats.EstimatedRows = pl.EstRows
	if reads == nil {
		return
	}
	stats.Pieces = make([]PieceStat, len(pl.Pieces))
	for i := range pl.Pieces {
		stats.Pieces[i] = PieceStat{
			Key:    string(pl.Pieces[i].Key),
			Est:    pl.Pieces[i].Est,
			Actual: reads[i].Load(),
		}
	}
}

// Result is the outcome of one search. Search returns it fully
// materialized; SearchStream returns it *pending* — Matches stays nil,
// All() pulls matches out of the still-running evaluation, and Count
// and Stats are finalized when that iteration ends.
type Result struct {
	// Matches holds the requested window of matches in global
	// (tid, root) order; nil in count-only mode and for pending
	// (SearchStream) results, whose matches flow through All instead.
	Matches []Match
	// Count is the number of matches found before evaluation stopped:
	// the exact total for unlimited or count-only searches, a lower
	// bound (>= len(Matches), since Offset skips within it) when
	// Stats.Truncated is set. On a pending result it is meaningful
	// only after All's iteration ends.
	Count int
	// Stats reports how the search executed; finalized with Count on
	// pending results.
	Stats SearchStats

	// stream backs a pending result; nil once consumed (or for plain
	// Search results, always).
	stream *resultStream
}

// All streams the result's matches as an iter.Seq2 — the form serving
// layers range over to write NDJSON incrementally. On a materialized
// result it walks Matches and the error value is always nil. On a
// pending result (SearchStream) it is the evaluation itself: each
// iteration step advances the join just far enough to produce the
// next match, and an evaluation failure (I/O error, cancellation)
// surfaces as the final yielded error. A pending result's iterator is
// single-use; Count and Stats are finalized when it returns, even if
// the consumer breaks early.
func (r *Result) All() iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		if s := r.stream; s != nil {
			r.stream = nil
			defer s.finish(r)
			for {
				m, ok := s.pull()
				if !ok {
					if err := s.err; err != nil {
						yield(Match{}, err)
					}
					return
				}
				if !yield(m, nil) {
					return
				}
			}
		}
		for _, m := range r.Matches {
			if !yield(m, nil) {
				return
			}
		}
	}
}

// Window applies opts.Offset and opts.Limit to fully materialized,
// globally sorted matches, returning the requested slice, the number
// of matches found, and whether trailing matches were cut off. A
// trimmed window is copied out of the full slice, so a small result
// does not pin a large backing array for its lifetime; the untrimmed
// common case stays zero-copy. The cluster router applies it too, so
// its window semantics are the engine's own.
func Window(ms []Match, opts SearchOpts) (out []Match, found int, truncated bool) {
	found = len(ms)
	off := opts.Offset
	if off < 0 {
		off = 0
	}
	if off > len(ms) {
		off = len(ms)
	}
	out = ms[off:]
	if opts.Limit > 0 && len(out) > opts.Limit {
		out = out[:opts.Limit]
		truncated = true
	}
	if len(out) < len(ms) {
		out = append([]Match(nil), out...)
	}
	return out, found, truncated
}

// Rebase appends ms to dst with each match's leaf-local tid shifted to
// the global range starting at base — the one merge step of the
// partition-then-concatenate execution model (searchPlan's, and a
// router's merging per-node windows, so both apply the same
// semantics).
func Rebase(dst []Match, ms []Match, base uint32) []Match {
	for _, m := range ms {
		dst = append(dst, Match{TID: m.TID + base, Root: m.Root})
	}
	return dst
}

// countingGetter wraps a posting getter so each physical fetch is also
// tallied into n — the per-query counter behind Result.Stats. Not safe
// for concurrent use; fan-out paths give each shard its own.
func countingGetter(get postingGetter, n *uint64) postingGetter {
	return func(k subtree.Key) ([]byte, bool, error) {
		*n++
		return get(k)
	}
}

// leafErr names the failing leaf in an evaluation error; nil stays nil.
func leafErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("core: shard %d: %w", i, err)
}

// searchPlan runs one compiled plan across the leaves through Gather.
// Leaves partition the corpus into contiguous tid ranges, so the
// globally sorted match stream is leaf 0's matches, then leaf 1's, and
// so on. A bounded search (a limit, not count-only) therefore consults
// leaves lazily in order and stops once Offset+Limit matches are
// folded: every leaf never started is posting fetches never issued
// (asserted against the fetch counter in the tests). Each leaf also
// evaluates with that target pushed into its join, so none produces
// more than target+1 matches' worth of join rows. An unbounded or
// count-only search starts every leaf at once and counts exactly. A
// lookahead leaf failing after the window filled is skipped; the
// window only uses matches folded before that gap, and the result is
// flagged Truncated. memos, when non-nil, holds one fetch memo per leaf
// (a batch's); a plain search passes nil.
func (ls leafSet) searchPlan(ctx context.Context, pl *Plan, opts SearchOpts, hit bool, memos []fetchMemo) (*Result, error) {
	var reads []atomic.Uint64
	if opts.Explain {
		reads = make([]atomic.Uint64, len(pl.Pieces))
	}
	target := 0
	if !opts.CountOnly {
		target = opts.Target()
	}
	type leafOut struct {
		ms      []Match
		n, rows int
	}
	var fetched atomic.Uint64 // every started leaf's, skipped failures included
	parts := make([][]Match, len(ls.leaves))
	res := &Result{Stats: SearchStats{PlanCacheHit: hit}}
	consulted, err := Gather(len(ls.leaves), target > 0, func(i int) (o leafOut, err error) {
		var n uint64
		sh := ls.leaves[i]
		get := countingGetter(sh.getPosting, &n)
		if memos != nil {
			get = memos[i].wrap(get)
		}
		o.ms, o.n, o.rows, err = sh.evalPlan(ctx, pl, get,
			evalOpts{countOnly: opts.CountOnly, target: target, dels: ls.del(i), pieceReads: reads})
		fetched.Add(n)
		return o, leafErr(i, err)
	}, func(i int, o leafOut) bool {
		parts[i] = o.ms
		res.Count += o.n
		res.Stats.JoinRows += uint64(o.rows)
		return target > 0 && res.Count >= target
	})
	if err != nil {
		return nil, err
	}
	res.Stats.PostingFetches = fetched.Load()
	res.Stats.ShardsConsulted = consulted
	planStats(&res.Stats, pl, reads)
	if !opts.CountOnly {
		all := make([]Match, 0, res.Count)
		for i, ms := range parts {
			all = Rebase(all, ms, ls.offsets[i])
		}
		res.Matches, _, res.Stats.Truncated = Window(all, opts)
	}
	res.Stats.Truncated = res.Stats.Truncated || consulted < len(ls.leaves)
	return res, nil
}

// resultStream is the engine behind a pending Result: a cursor over
// the per-shard match streams that enforces offset/limit and gathers
// stats as it goes. It runs entirely on the consumer's goroutine.
type resultStream struct {
	ctx    context.Context
	ls     leafSet
	pl     *Plan
	target int // offset+limit; 0 = unbounded
	offset int

	si        int         // current shard while cur != nil, else next to open
	cur       matchStream // nil between shards
	fetched   uint64
	rows      uint64
	produced  int // matches pulled out of shards, offset-skipped ones included
	consulted int
	hit       bool
	truncated bool
	finished  bool
	err       error

	// release, when set, is called exactly once when the stream's
	// iteration ends (including early break): the live-index layer
	// parks an epoch pin here so the segment set a pending search runs
	// on cannot be retired mid-iteration.
	release func()
}

// newStreamResult builds a pending Result over the given leaf set
// (whose tombstone sets, if any, filter the per-leaf streams).
func newStreamResult(ctx context.Context, ls leafSet, pl *Plan, opts SearchOpts, hit bool) (*Result, error) {
	if opts.CountOnly {
		return nil, fmt.Errorf("core: count-only search has no streaming form; use Search")
	}
	rs := &resultStream{
		ctx:    ctx,
		ls:     ls,
		pl:     pl,
		target: opts.Target(),
		offset: max(opts.Offset, 0),
		hit:    hit,
	}
	return &Result{stream: rs}, nil
}

// pull returns the next in-window match, advancing shard streams as
// needed. After the window closes it peeks one match further so the
// truncation flag matches the materialized path's semantics, then
// reports the stream as finished.
func (rs *resultStream) pull() (Match, bool) {
	for {
		if rs.finished || rs.err != nil {
			return Match{}, false
		}
		if rs.cur == nil {
			if rs.si >= len(rs.ls.leaves) {
				rs.finished = true // every shard exhausted: counts are exact
				return Match{}, false
			}
			sh := rs.ls.leaves[rs.si]
			ms, err := sh.streamPlan(rs.ctx, rs.pl, countingGetter(sh.getPosting, &rs.fetched), evalOpts{dels: rs.ls.del(rs.si)})
			if err != nil {
				rs.err = leafErr(rs.si, err)
				return Match{}, false
			}
			rs.cur = ms
			rs.consulted++
		}
		m, ok := rs.cur.Next()
		if !ok {
			if err := rs.cur.Err(); err != nil {
				rs.err = leafErr(rs.si, err)
				return Match{}, false
			}
			rs.closeShard()
			// The window is complete; whether more shards hold matches
			// is unknown and not worth their posting fetches — exactly
			// a bounded Search's truncation semantics.
			if rs.target > 0 && rs.produced >= rs.target && rs.si < len(rs.ls.leaves) {
				rs.truncated = true
				rs.finished = true
				return Match{}, false
			}
			continue
		}
		rs.produced++
		if rs.produced <= rs.offset {
			continue // paging: skip into the window
		}
		if rs.target > 0 && rs.produced > rs.target {
			// The peek match past the window: evaluation found more than
			// the window holds, so the count is a lower bound.
			rs.truncated = true
			rs.finished = true
			return Match{}, false
		}
		return Match{TID: m.TID + rs.ls.offsets[rs.si], Root: m.Root}, true
	}
}

// closeShard folds the current shard's work counters and moves on.
func (rs *resultStream) closeShard() {
	rs.rows += uint64(rs.cur.Rows())
	rs.cur = nil
	rs.si++
}

// finish finalizes the pending Result's Count and Stats; called by
// Result.All when its iteration ends, including on early break. A
// stream that did not run to its natural end — the consumer broke out
// mid-shard, or evaluation failed — is truncated by definition: its
// Count reflects only the matches produced, so the exactness contract
// (unflagged Count == exact total) must not be claimed.
func (rs *resultStream) finish(r *Result) {
	if rs.cur != nil {
		rs.rows += uint64(rs.cur.Rows())
		rs.cur = nil
	}
	r.Count = rs.produced
	r.Stats = SearchStats{
		PostingFetches:  rs.fetched,
		PlanCacheHit:    rs.hit,
		ShardsConsulted: rs.consulted,
		Truncated:       rs.truncated || !rs.finished || rs.consulted < len(rs.ls.leaves),
		JoinRows:        rs.rows,
	}
	planStats(&r.Stats, rs.pl, nil)
	if rs.release != nil {
		rs.release()
		rs.release = nil
	}
}
