package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/join"
	"repro/internal/match"
	"repro/internal/planner"
	"repro/internal/postings"
)

// This file adapts one index's plan evaluation to a pull-based match
// stream: posting blobs are fetched up front (one B+Tree read per
// piece, same as the materialized path) but *decoded* lazily, and the
// join advances tree by tree only as matches are demanded
// (join.Stream). A consumer that stops after offset+limit matches
// therefore stops the decode and join work inside the shard — the
// in-shard half of limit pushdown. The filter coding streams too:
// candidate tids intersect eagerly (cheap), but trees are fetched and
// validated one at a time, so a satisfied limit stops the costly
// validation scan.

// matchStream is a pull producer of one plan's matches on one index,
// in (tid, root) order.
type matchStream struct {
	// next returns the next match; ok=false at the end or on error.
	next func() (Match, bool)
	// err reports what stopped the stream, nil on clean exhaustion or
	// while matches are still flowing.
	err func() error
	// rows reports the join rows spent so far (posting entries decoded
	// plus intermediate rows; trees validated under the filter coding);
	// callable at any point, typically once after the last next.
	rows func() int
}

// streamPlan builds the match stream of one compiled plan. Of ev only
// dels and pieceReads apply — bounds are the consumer's business.
func (ix *Index) streamPlan(ctx context.Context, pl *Plan, get postingGetter, ev evalOpts) (*matchStream, error) {
	switch ix.meta.Coding {
	case postings.RootSplit, postings.SubtreeInterval:
		return ix.streamJoin(ctx, pl, get, ev)
	case postings.FilterBased:
		return ix.streamFilter(ctx, pl, get, ev)
	default:
		return nil, fmt.Errorf("core: unknown coding %v", ix.meta.Coding)
	}
}

// pieceCursor returns the lazily-decoding entry cursor of one plan
// piece's posting blob, filtered by the leaf's tombstone set (dels may
// be nil); found=false means the key is absent (the query cannot match
// anywhere).
func (ix *Index) pieceCursor(pp PlanPiece, get postingGetter, dels *TombSet) (join.StreamRelation, bool, error) {
	payload, _, found, err := postingPayload(pp.Key, get, ix.meta.Coding)
	if err != nil || !found {
		return join.StreamRelation{}, false, err
	}
	rel := join.StreamRelation{Name: string(pp.Key)}
	switch ix.meta.Coding {
	case postings.RootSplit:
		rel.Slots = []int{pp.Root}
		rel.Cursor = &rootCursor{it: postings.NewRootIterator(payload), dels: dels}
	case postings.SubtreeInterval:
		rel.Slots = pp.Slots
		rel.Cursor = &intervalCursor{it: postings.NewIntervalIterator(payload), perms: pp.Perms, pi: len(pp.Perms), dels: dels}
	default:
		return join.StreamRelation{}, false, fmt.Errorf("core: stream with coding %v", ix.meta.Coding)
	}
	return rel, true, nil
}

// streamJoin builds the streaming evaluation for the join codings.
// Posting blobs are fetched in the plan's cost order (syntactic on
// uncosted plans), so a query whose cheapest piece is absent never
// issues the remaining point reads; the relations keep their piece
// positions for the join.
func (ix *Index) streamJoin(ctx context.Context, pl *Plan, get postingGetter, ev evalOpts) (*matchStream, error) {
	rels := make([]join.StreamRelation, len(pl.Pieces))
	fetchOrder := pl.Order
	if len(fetchOrder) != len(pl.Pieces) {
		fetchOrder = nil
	}
	for i := range pl.Pieces {
		pi := i
		if fetchOrder != nil {
			pi = fetchOrder[i]
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rel, found, err := ix.pieceCursor(pl.Pieces[pi], get, ev.dels)
		if err != nil {
			return nil, err
		}
		if !found {
			// A piece with no postings: no matches anywhere.
			return emptyStream(), nil
		}
		if ev.pieceReads != nil && pi < len(ev.pieceReads) {
			rel.Cursor = &countCursor{inner: rel.Cursor, n: &ev.pieceReads[pi]}
		}
		rels[pi] = rel
	}
	js, err := join.NewStreamOpts(ctx, pl.Query, rels, join.Options{
		Order:   pl.Order,
		NoStack: pl.Strategy == planner.StrategyBlock,
	})
	if err != nil {
		return nil, err
	}
	return &matchStream{next: js.Next, err: js.Err, rows: js.Rows}, nil
}

// streamFilter builds the streaming evaluation for the filter coding:
// tid lists intersect eagerly (shared with evalFilter), candidate
// trees validate lazily.
func (ix *Index) streamFilter(ctx context.Context, pl *Plan, get postingGetter, ev evalOpts) (*matchStream, error) {
	cands, err := ix.filterCandidates(ctx, pl, get, ev)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return emptyStream(), nil
	}

	m := match.New(pl.Query)
	var (
		buf       []Match
		bufI, ci  int
		validated int
		serr      error
	)
	next := func() (Match, bool) {
		for {
			if bufI < len(buf) {
				mm := buf[bufI]
				bufI++
				return mm, true
			}
			if serr != nil || ci >= len(cands) {
				return Match{}, false
			}
			if err := ctx.Err(); err != nil {
				serr = err
				return Match{}, false
			}
			tid := cands[ci]
			ci++
			t, err := ix.store.Tree(int(tid))
			if err != nil {
				serr = err
				return Match{}, false
			}
			validated++
			buf, bufI = buf[:0], 0
			for _, root := range m.Roots(t) {
				buf = append(buf, Match{TID: tid, Root: uint32(root)})
			}
		}
	}
	return &matchStream{
		next: next,
		err:  func() error { return serr },
		rows: func() int { return validated },
	}, nil
}

// countCursor wraps an entry cursor so each decoded entry is tallied
// into a per-piece explain counter; only attached when a caller asked
// for explain output.
type countCursor struct {
	inner join.EntryCursor
	n     *atomic.Uint64
}

// Next decodes the next entry, counting it.
func (c *countCursor) Next() (postings.IntervalEntry, bool) {
	e, ok := c.inner.Next()
	if ok {
		c.n.Add(1)
	}
	return e, ok
}

// Err reports the inner cursor's decode error, if any.
func (c *countCursor) Err() error { return c.inner.Err() }

// emptyStream is the no-matches stream (an absent cover piece).
func emptyStream() *matchStream {
	return &matchStream{
		next: func() (Match, bool) { return Match{}, false },
		err:  func() error { return nil },
		rows: func() int { return 0 },
	}
}

// rootCursor adapts a root-split posting iterator to the join's entry
// cursor: each posting becomes a one-column entry binding the piece
// root. Postings of tombstoned trees are skipped before the join sees
// them (dels may be nil). Every entry is served through the one scratch
// record — valid until the next call to Next, which is all the cursor
// contract promises (the stream copies what it keeps) — so decoding
// allocates nothing.
type rootCursor struct {
	it      *postings.RootIterator
	dels    *TombSet
	scratch [1]postings.NodeRef
}

// Next decodes the next surviving root-split posting.
func (c *rootCursor) Next() (postings.IntervalEntry, bool) {
	for c.it.Next() {
		e := c.it.Entry()
		if c.dels.Has(e.TID) {
			continue
		}
		c.scratch[0] = e.NodeRef
		return postings.IntervalEntry{TID: e.TID, Nodes: c.scratch[:]}, true
	}
	return postings.IntervalEntry{}, false
}

// Err reports the iterator's decode error, if any.
func (c *rootCursor) Err() error { return c.it.Err() }

// intervalCursor adapts a subtree-interval posting iterator, expanding
// each instance by the pattern's slot automorphisms (see
// Index.fetchPiece) lazily: the perm variants of one instance are
// emitted consecutively, which preserves the tid grouping the join
// stream needs. Postings of tombstoned trees are skipped before the
// permutation expansion, so a deleted tree costs no variant entries
// (dels may be nil). Entries are valid until the next call to Next: an
// unpermuted instance is the iterator's own reused node slice, a
// permuted one is written into the cursor's scratch.
type intervalCursor struct {
	it      *postings.IntervalIterator
	perms   [][]int
	dels    *TombSet
	pi      int // next perm of the current instance to emit; >= len(perms) pulls a fresh instance
	scratch []postings.NodeRef
}

// advance pulls the next surviving instance off the iterator.
func (c *intervalCursor) advance() bool {
	for c.it.Next() {
		if !c.dels.Has(c.it.TID()) {
			return true
		}
	}
	return false
}

// Next decodes (or permutes) the next interval posting.
func (c *intervalCursor) Next() (postings.IntervalEntry, bool) {
	if len(c.perms) <= 1 {
		if !c.advance() {
			return postings.IntervalEntry{}, false
		}
		return postings.IntervalEntry{TID: c.it.TID(), Nodes: c.it.Nodes()}, true
	}
	if c.pi >= len(c.perms) {
		if !c.advance() {
			return postings.IntervalEntry{}, false
		}
		c.pi = 0
	}
	pm := c.perms[c.pi]
	c.pi++
	// The instance stays in the iterator's slice until advance moves on.
	cur := c.it.Nodes()
	if len(cur) != len(pm) {
		// A corrupt instance of the wrong size: hand it over unpermuted
		// and let the join reject its width.
		return postings.IntervalEntry{TID: c.it.TID(), Nodes: cur}, true
	}
	c.scratch = c.scratch[:0]
	for _, src := range pm {
		c.scratch = append(c.scratch, cur[src])
	}
	return postings.IntervalEntry{TID: c.it.TID(), Nodes: c.scratch}, true
}

// Err reports the iterator's decode error, if any.
func (c *intervalCursor) Err() error { return c.it.Err() }
