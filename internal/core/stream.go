package core

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/join"
	"repro/internal/match"
	"repro/internal/postings"
	"repro/internal/treebank"
)

// This file is one index's plan evaluation as a pull-based match
// stream: posting blobs are fetched up front (one B+Tree read per
// piece) but *decoded* lazily, and the join advances tree by tree only
// as matches are demanded (join.Stream). A consumer that stops after
// offset+limit matches therefore stops the decode and join work inside
// the shard — the in-shard half of limit pushdown — and a full drain
// (evalPlan) stops at the first exhausted posting list. The filter
// coding streams too: candidate tids intersect eagerly (cheap), but
// trees are fetched and validated one at a time, so a satisfied limit
// stops the costly validation scan.

// matchStream is a pull producer of one plan's matches on one index,
// in (tid, root) order. *join.Stream is the join codings' producer,
// *filterStream the filter coding's.
type matchStream interface {
	// Next returns the next match; ok=false at the end or on error.
	Next() (Match, bool)
	// Err reports what stopped the stream, nil on clean exhaustion or
	// while matches are still flowing.
	Err() error
	// Rows reports the join rows spent so far (posting entries decoded
	// plus intermediate rows; trees validated under the filter coding);
	// callable at any point, typically once after the last Next.
	Rows() int
}

// streamPlan builds the match stream of one compiled plan. Of ev only
// dels applies, and under the filter coding pieceReads — bounds, and a
// join stream's per-piece reads, are the consumer's business.
func (ix *Index) streamPlan(ctx context.Context, pl *Plan, get postingGetter, ev evalOpts) (matchStream, error) {
	switch ix.meta.Coding {
	case postings.RootSplit, postings.SubtreeInterval:
		return ix.streamJoin(ctx, pl, get, ev)
	case postings.FilterBased:
		return ix.streamFilter(ctx, pl, get, ev)
	default:
		return nil, fmt.Errorf("core: unknown coding %v", ix.meta.Coding)
	}
}

// pieceCursor returns the lazily-decoding batch cursor of one plan
// piece's posting blob — copying from the leaf's decoded list when its
// memo holds a root-split one — filtered by the leaf's tombstone set
// (dels may be nil); found=false means the key is absent (the query
// cannot match anywhere).
func (ix *Index) pieceCursor(pp PlanPiece, get postingGetter, dels *TombSet) (join.StreamRelation, bool, error) {
	count, payload, found, err := postingPayload(pp.Key, get, ix.meta.Coding)
	if err != nil || !found {
		return join.StreamRelation{}, false, err
	}
	rel := join.StreamRelation{Name: string(pp.Key)}
	switch ix.meta.Coding {
	case postings.RootSplit:
		if d := ix.lists.get(pp.Key, count, payload); d != nil {
			c := &memoCursor{list: d, dels: dels.Scan(), slot: [1]int{pp.Root}}
			rel.Slots, rel.Blocks = c.slot[:], c
			break
		}
		c := &rootCursor{it: *postings.NewRootIterator(payload), dels: dels.Scan(), slot: [1]int{pp.Root}}
		rel.Slots, rel.Blocks = c.slot[:], c
	case postings.SubtreeInterval:
		rel.Slots = pp.Slots
		rel.Blocks = &intervalCursor{it: *postings.NewIntervalIterator(payload), perms: pp.Perms, pi: len(pp.Perms), dels: dels.Scan()}
	default:
		return join.StreamRelation{}, false, fmt.Errorf("core: stream with coding %v", ix.meta.Coding)
	}
	return rel, true, nil
}

// streamJoin builds the streaming evaluation for the join codings.
// Posting blobs are fetched in the plan's join order, so a query whose
// first piece is absent — on a costed plan, its cheapest — never issues
// the remaining point reads; the relations keep their piece positions
// for the join.
func (ix *Index) streamJoin(ctx context.Context, pl *Plan, get postingGetter, ev evalOpts) (matchStream, error) {
	rels := make([]join.StreamRelation, len(pl.Pieces))
	for _, pi := range pl.Order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rel, found, err := ix.pieceCursor(pl.Pieces[pi], get, ev.dels)
		if err != nil {
			return nil, err
		}
		if !found {
			// A piece with no postings: no matches anywhere.
			return emptyStream, nil
		}
		rels[pi] = rel
	}
	js, err := join.NewStreamOpts(ctx, pl.Query, rels, join.Options{Order: pl.Order})
	if err != nil {
		return nil, err
	}
	return js, nil
}

// filterStream is the filter coding's match stream: the candidate tids
// (already intersected) validate lazily, one tree per refill.
type filterStream struct {
	ctx   context.Context
	store *treebank.Store
	m     *match.Matcher
	cands []uint32 // candidates not yet validated

	buf       []Match // matches of the last validated tree, drained in order
	bufI      int
	validated int
	err       error
}

// emptyStream is the no-matches stream (an absent or empty cover
// piece); it holds no state, so every evaluation shares it.
var emptyStream matchStream = &filterStream{}

// streamFilter builds the streaming evaluation for the filter coding:
// intersect the tid lists of all pieces eagerly, then fetch candidate
// trees from the data file and run the exact matcher (the costly
// filtering phase of §4.4.1) one tree at a time.
func (ix *Index) streamFilter(ctx context.Context, pl *Plan, get postingGetter, ev evalOpts) (matchStream, error) {
	cands, err := ix.filterCandidates(ctx, pl, get, ev)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return emptyStream, nil
	}
	return &filterStream{ctx: ctx, store: ix.store, m: match.New(pl.Query), cands: cands}, nil
}

// Next validates candidate trees until one matches. Cancellation is
// checked per validated tree — validation dominates this coding's cost,
// so an expired ctx stops the scan within one tree's worth of work.
func (s *filterStream) Next() (Match, bool) {
	for {
		if s.bufI < len(s.buf) {
			m := s.buf[s.bufI]
			s.bufI++
			return m, true
		}
		if s.err != nil || len(s.cands) == 0 {
			return Match{}, false
		}
		if s.err = s.ctx.Err(); s.err != nil {
			return Match{}, false
		}
		tid := s.cands[0]
		s.cands = s.cands[1:]
		t, err := s.store.Tree(int(tid))
		if err != nil {
			s.err = err
			return Match{}, false
		}
		s.validated++
		s.buf, s.bufI = s.buf[:0], 0
		for _, root := range s.m.Roots(t) {
			s.buf = append(s.buf, Match{TID: tid, Root: uint32(root)})
		}
	}
}

// Err reports the tree-fetch failure or cancellation that stopped the
// stream, if any.
func (s *filterStream) Err() error { return s.err }

// Rows reports the trees validated so far.
func (s *filterStream) Rows() int { return s.validated }

// rootCursor adapts a root-split posting iterator to the join's batch
// cursor: each posting becomes a one-column entry binding the piece
// root, decoded a block at a time straight into the stream's window, so
// decoding allocates nothing and copies nothing. Postings of tombstoned
// trees are squeezed out of each decoded block before the join sees
// them — tids only grow along a list, so one forward scan of the
// tombstone set serves the whole list. The iterator and the relation's
// one-slot list live in the cursor, so a piece's whole set-up is this
// one object.
type rootCursor struct {
	it   postings.RootIterator
	dels TombScan
	slot [1]int // the piece root, backing the relation's Slots
}

// NextBlock fills tids and refs with the next surviving postings and
// returns how many it wrote. A block whose every posting is tombstoned
// is decoded over, not returned: writing nothing means the list has
// ended.
func (c *rootCursor) NextBlock(tids []uint32, refs []postings.NodeRef) int {
	for {
		n := c.it.NextBlock(tids, refs)
		if kept := c.dels.squeeze(tids[:n], refs[:n]); kept > 0 || n == 0 {
			return kept
		}
	}
}

// Skip passes whole skip blocks below target and returns how many
// postings it passed. It jumps only blocks that end below the next
// tombstoned tree, so every posting it passes is live and counts as
// NextBlock would count it; the block holding a tombstoned tree is left
// to NextBlock, which squeezes the deleted postings out.
func (c *rootCursor) Skip(target uint32) int {
	if dead, ok := c.dels.first(); ok && dead < target {
		target = dead
	}
	return c.it.SkipTo(target)
}

// Err reports the iterator's decode error, if any.
func (c *rootCursor) Err() error { return c.it.Err() }

// intervalCursor adapts a subtree-interval posting iterator to the
// join's batch cursor, expanding each instance by the pattern's slot
// automorphisms lazily — pieces with identical-encoding siblings admit
// several equivalent slot assignments per instance, and joins that
// constrain the twins differently must see every one (false-negative
// fix). The variants of one instance are written consecutively, each
// straight into the window at the piece's stride, which preserves the
// tid grouping the join stream needs; a block may end between two
// variants of an instance, and the next one goes on from there.
// Postings of tombstoned trees are skipped before the expansion, so a
// deleted tree costs no variant entries (dels may be nil).
type intervalCursor struct {
	it    postings.IntervalIterator
	perms [][]int // the slot automorphisms: never empty, the identity alone when the piece has no twins
	dels  TombScan
	pi    int   // the current instance's next variant; len(perms) pulls a fresh instance
	err   error // an instance of the wrong width
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

// NextBlock writes the next variants into tids and refs, len(refs) /
// len(tids) records each, and returns how many it wrote. An instance
// whose node count is not that stride fails the cursor there: the
// variants ahead of it are handed over and the next call writes none.
func (c *intervalCursor) NextBlock(tids []uint32, refs []postings.NodeRef) int {
	if c.err != nil {
		return 0
	}
	w := len(refs) / len(tids)
	for k := range tids {
		if c.pi == len(c.perms) {
			if !c.advance() {
				return k
			}
			if n := len(c.it.Nodes()); n != w {
				c.err = fmt.Errorf("interval instance binds %d nodes, want %d", n, w)
				return k
			}
			c.pi = 0
		}
		// The instance stays in the iterator's slice until advance moves on.
		cur, dst := c.it.Nodes(), refs[k*w:][:w]
		for j, src := range c.perms[c.pi] {
			dst[j] = cur[src]
		}
		tids[k] = c.it.TID()
		c.pi++
	}
	return len(tids)
}

// Skip passes nothing: an interval list has no skip table, so the
// stream steps over a gap entry by entry.
func (c *intervalCursor) Skip(uint32) int { return 0 }

// Err reports the malformed instance or the iterator's decode error.
func (c *intervalCursor) Err() error { return cmp.Or(c.err, c.it.Err()) }
