package join

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/postings"
	"repro/internal/query"
)

// This file is the incremental join mode: instead of materializing
// every relation and intermediate table before producing the first
// match (Run), a Stream pulls posting entries lazily and joins one
// tree at a time. Because every relation is (tid, pre)-sorted and a
// match requires every cover piece to occur in the tree, the distinct
// (tid, root) matches of tree T depend only on each relation's
// entries with tid == T — so aligning the cursors on their next common
// tid, joining that block with the same machinery as Run, and emitting
// the block's matches yields the global (tid, root) order one tree at
// a time. A consumer that stops pulling (a search that has its
// offset+limit window) therefore stops the decoding and joining of
// every entry it never needed — the in-shard half of limit pushdown,
// complementing the cross-shard early termination in internal/core.

// EntryCursor is a pull source of (tid, pre)-sorted posting entries —
// the lazily-decoded counterpart of Relation.Entries. Next returns the
// next entry until the list is exhausted or a decode error occurs;
// Err distinguishes the two after Next returns false.
//
// An entry's Nodes need only stay valid until the next call to Next:
// the stream copies the node records of every entry it keeps into its
// own block buffer at pull time, so a cursor may decode into one
// scratch slice for its whole life.
type EntryCursor interface {
	// Next returns the next entry in (tid, pre) order; ok reports
	// whether one was produced.
	Next() (e postings.IntervalEntry, ok bool)
	// Err reports the decode error that stopped Next, if any.
	Err() error
}

// StreamRelation is one lazily-decoded join input: Slots as in
// Relation, entries pulled from Cursor on demand.
type StreamRelation struct {
	Name   string      // for diagnostics: the piece's key
	Slots  []int       // query node bound by each entry column
	Cursor EntryCursor // (tid, pre)-sorted entry source
}

// source is one relation's pull state. buf holds the entries pulled
// and not yet released, in flat form: while a block is gathered, the
// current tree's entries followed by the head — the first entry of a
// later tree — and between blocks just the head. The backing arrays
// are reused for the stream's life.
type source struct {
	name   string
	cursor EntryCursor
	buf    table
	head   uint32 // tid of the head, the next undelivered entry; valid while live
	live   bool   // buf ends in a head; false once the cursor is exhausted
}

// Stream evaluates a join incrementally: Next emits the distinct
// (tid, root image) matches of the query root in global (tid, root)
// order, advancing the underlying cursors only as far as demanded.
// A Stream is single-use and not safe for concurrent use.
type Stream struct {
	ctx context.Context
	q   *query.Query

	srcs    []source
	slots   [][]int  // each source's slots, for compiling
	blocks  []table  // blocks[i]: the current tree's entries of srcs[i], a view into its buf
	prog    *program // compiled up front under a planner order, else on the first block
	noStack bool     // Options.NoStack: skip the Stack-Tree fast path
	x       executor

	buf  []Match // matches of the current tid, drained in order
	bufI int

	read int // entries pulled from cursors
	rows int // read + rows produced by join steps
	done bool
	err  error
}

// NewStream validates the inputs and returns a stream positioned
// before the first match. Relation and query requirements are those of
// Run; an empty posting list is not an error (the stream just produces
// nothing).
func NewStream(ctx context.Context, q *query.Query, rels []StreamRelation) (*Stream, error) {
	return NewStreamOpts(ctx, q, rels, Options{})
}

// NewStreamOpts is NewStream with planner options applied: a valid
// opt.Order pins the per-tree join order, so the join is compiled here,
// before the first entry is joined (without one it is compiled on the
// first block, from that block's sizes), and opt.NoStack suppresses the
// Stack-Tree fast path. Invalid orders are ignored, as in Run.
func NewStreamOpts(ctx context.Context, q *query.Query, rels []StreamRelation, opt Options) (*Stream, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("join: no relations")
	}
	slots := make([][]int, len(rels))
	for i, r := range rels {
		if len(r.Slots) == 0 {
			return nil, fmt.Errorf("join: relation %q has no slots", r.Name)
		}
		slots[i] = r.Slots
	}
	if !slices.ContainsFunc(slots, func(ss []int) bool { return slices.Contains(ss, q.Root()) }) {
		return nil, fmt.Errorf("join: query root is not bound by any relation")
	}
	s := &Stream{
		ctx:     ctx,
		q:       q,
		srcs:    make([]source, len(rels)),
		slots:   slots,
		blocks:  make([]table, len(rels)),
		noStack: opt.NoStack,
		x:       executor{cc: canceller{ctx: ctx}},
	}
	if validOrder(q, slots, opt.Order) {
		prog, err := compile(q, slots, opt.Order, opt.NoStack)
		if err != nil {
			return nil, err
		}
		s.prog = prog
	}
	//silint:ignore ctxloop priming pulls exactly one entry per relation, bounded by the cover size, not the posting lists
	for i, r := range rels {
		s.srcs[i] = source{name: r.Name, cursor: r.Cursor, buf: table{stride: len(r.Slots)}}
		s.blocks[i].stride = len(r.Slots)
		if s.done {
			continue // a source is already known empty: nothing can match
		}
		if !s.pull(i) {
			// One source is empty (or corrupt): no tree can match, so
			// the remaining cursors are not even primed.
			s.done = true
		}
	}
	return s, nil
}

// Next returns the next match; ok=false at the end of the stream or on
// error (consult Err). Matches arrive in ascending (tid, root) order.
func (s *Stream) Next() (Match, bool) {
	for {
		if s.bufI < len(s.buf) {
			m := s.buf[s.bufI]
			s.bufI++
			return m, true
		}
		if s.done || s.err != nil {
			return Match{}, false
		}
		s.fill()
	}
}

// Err reports the error that terminated the stream, if any: a cursor
// decode failure, a join error, or the context's cancellation.
func (s *Stream) Err() error { return s.err }

// Rows reports join work so far, measured exactly as Info.Rows: cursor
// entries decoded plus intermediate rows produced by join steps.
func (s *Stream) Rows() int { return s.rows }

// EntriesRead reports how many posting entries have been decoded so
// far — the stream's share of Rows attributable to input, the measure
// core reports as postings fetched for bounded evaluations.
func (s *Stream) EntriesRead() int { return s.read }

// next advances source i's cursor to its next entry, which becomes the
// head, and returns it — valid, like any cursor entry, until the
// following call. The entry is counted as read but not yet buffered
// (see keep). ok is false when the source is exhausted or failed (s.err
// is set on failure, which includes an entry of the wrong width or a
// tid that runs backwards — the join relies on both).
func (s *Stream) next(i int) (e postings.IntervalEntry, ok bool) {
	c := &s.srcs[i]
	e, ok = c.cursor.Next()
	if !ok {
		c.live = false
		if err := c.cursor.Err(); err != nil && s.err == nil {
			s.err = fmt.Errorf("join: relation %q: %w", c.name, err)
		}
		return e, false
	}
	if len(e.Nodes) != c.buf.stride {
		return e, s.fail(c, fmt.Errorf("join: relation %q: entry binds %d nodes, want %d", c.name, len(e.Nodes), c.buf.stride))
	}
	if c.live && e.TID < c.head {
		return e, s.fail(c, fmt.Errorf("join: relation %q is not tid-sorted", c.name))
	}
	c.head, c.live = e.TID, true
	s.read++
	s.rows++
	return e, true
}

// keep copies e's node records onto the end of the source's buffer:
// the copy-at-pull that lets cursors reuse their scratch.
func (c *source) keep(e postings.IntervalEntry) {
	c.buf.tids = append(c.buf.tids, e.TID)
	c.buf.refs = append(c.buf.refs, e.Nodes...)
}

// pull advances source i and buffers the new head behind the entries
// already held.
func (s *Stream) pull(i int) bool {
	e, ok := s.next(i)
	if ok {
		s.srcs[i].keep(e)
	}
	return ok
}

// fail ends source c on a malformed entry.
func (s *Stream) fail(c *source, err error) bool {
	c.live = false
	if s.err == nil {
		s.err = err
	}
	return false
}

// fill advances to the next tid present in every source and joins its
// block, leaving the block's matches in buf. It sets done when any
// source is exhausted and err on failure or cancellation.
func (s *Stream) fill() {
	s.buf, s.bufI = s.buf[:0], 0
	for {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return
		}
		tid, ok := s.align()
		if !ok {
			return // done or err set
		}
		if !s.collect(tid) {
			return // a cursor failed mid-block
		}
		err := s.joinBlock()
		s.release()
		if err != nil {
			s.err = err
			return
		}
		if len(s.buf) > 0 {
			return
		}
		// The block joined to nothing; move on to the next common tid.
	}
}

// align advances the cursors until every head carries the same tid —
// the next tree that can possibly match — and returns it. Between
// blocks each source's buffer holds just its head; entries a seek skips
// are never copied, only the head it stops on replaces the old one.
func (s *Stream) align() (uint32, bool) {
	for i := range s.srcs {
		if !s.srcs[i].live {
			s.done = true
			return 0, false
		}
	}
	target := s.srcs[0].head
	for {
		raised := false
		for i := range s.srcs {
			c := &s.srcs[i]
			if c.head < target {
				var e postings.IntervalEntry
				for ok := true; c.head < target; {
					// This seek can decode a whole relation between
					// fill's per-block polls, so observe cancellation
					// here too, amortized to one poll per 256 entries.
					if s.read&255 == 0 {
						if err := s.ctx.Err(); err != nil {
							s.err = err
							s.done = true
							return 0, false
						}
					}
					if e, ok = s.next(i); !ok {
						s.done = true
						return 0, false
					}
				}
				c.buf.reset(c.buf.stride)
				c.keep(e)
			}
			if c.head > target {
				target = c.head
				raised = true
			}
		}
		if !raised {
			return target, true
		}
	}
}

// collect gathers each source's entries for tid behind its head,
// leaving the heads on the first entry of a later tree, and points
// blocks at the gathered runs.
func (s *Stream) collect(tid uint32) bool {
	for i := range s.srcs {
		c := &s.srcs[i]
		for c.live && c.head == tid {
			// A heavy tree's block is unbounded; poll cancellation at
			// the same amortized cadence as align's seek loop.
			if s.read&255 == 0 {
				if err := s.ctx.Err(); err != nil {
					s.err = err
					break
				}
			}
			s.pull(i)
		}
		if s.err != nil {
			return false
		}
		n := c.buf.len()
		if c.live {
			n-- // the head belongs to a later tree
		}
		s.blocks[i].tids, s.blocks[i].refs = c.buf.tids[:n], c.buf.refs[:n*c.buf.stride]
	}
	return true
}

// release drops the joined block from every source, moving each head
// (if any) to the front of its buffer.
func (s *Stream) release() {
	for i := range s.srcs {
		c := &s.srcs[i]
		n := len(s.blocks[i].tids)
		if !c.live {
			c.buf.reset(c.buf.stride)
			continue
		}
		c.buf.tids[0] = c.buf.tids[n]
		copy(c.buf.refs, c.buf.row(n))
		c.buf.tids, c.buf.refs = c.buf.tids[:1], c.buf.refs[:c.buf.stride]
	}
}

// joinBlock runs the compiled join over the current single-tid blocks,
// leaving the block's distinct matches in buf sorted by root and adding
// the intermediate rows to the work counter. Without a planner order
// the join is compiled on the first block, from its sizes, and reused:
// connectivity is structural (identical every block), and re-planning
// per tree would put O(matched trees) planning work on the hot
// streaming path for the minor benefit of per-tree size-ordering over
// tiny blocks.
func (s *Stream) joinBlock() error {
	if s.prog == nil {
		sizes := make([]int, len(s.blocks))
		for i := range s.blocks {
			sizes[i] = s.blocks[i].len()
		}
		order, err := planOrder(s.q, s.slots, sizes)
		if err != nil {
			return err
		}
		if s.prog, err = compile(s.q, s.slots, order, s.noStack); err != nil {
			return err
		}
	}
	final, rows, err := s.x.run(s.prog, s.blocks)
	s.rows += rows
	if err != nil {
		return err
	}
	s.buf, _ = s.x.project(final, s.prog.rootCol, s.buf, false)
	return nil
}

// SliceCursor adapts an in-memory entry slice to EntryCursor — the
// bridge for callers (and tests) holding materialized relations.
type SliceCursor struct {
	entries []postings.IntervalEntry
	i       int
}

// NewSliceCursor returns a cursor over entries, which must already be
// in (tid, pre) order.
func NewSliceCursor(entries []postings.IntervalEntry) *SliceCursor {
	return &SliceCursor{entries: entries}
}

// Next returns the next entry of the slice.
func (c *SliceCursor) Next() (postings.IntervalEntry, bool) {
	if c.i >= len(c.entries) {
		return postings.IntervalEntry{}, false
	}
	e := c.entries[c.i]
	c.i++
	return e, true
}

// Err always reports nil: a slice cannot fail to decode.
func (c *SliceCursor) Err() error { return nil }
