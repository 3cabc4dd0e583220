package join

import (
	"context"
	"fmt"

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

// EntryCursor is a per-entry pull source of (tid, pre)-sorted posting
// entries — the lazily-decoded counterpart of Relation.Entries. Next
// returns the next entry until the list is exhausted or a decode error
// occurs; Err distinguishes the two after Next returns false.
//
// An entry's Nodes need only stay valid until the next call to Next:
// the stream copies them into the relation's window as it fills it (see
// BlockCursor), so a cursor may decode into one scratch slice for its
// whole life.
//
// No production cursor implements it: every one is a BlockCursor. It
// stays declared, with StreamRelation.Cursor and its adapter
// entryBlocks, only because bench/layers.go streams through a per-entry
// cursor, and tests use it as the one-at-a-time reference.
type EntryCursor interface {
	// Next returns the next entry in (tid, pre) order; ok reports
	// whether one was produced.
	Next() (e postings.IntervalEntry, ok bool)
	// Err reports the decode error that stopped Next, if any.
	Err() error
}

// BlockCursor is the batch pull source the stream reads: each call
// decodes many entries straight into the stream's own flat buffers, so
// stepping over an entry costs the stream a compare, not a call. Skip
// lets the stream pass over a gap without having the entries decoded at
// all.
type BlockCursor interface {
	// NextBlock fills tids and refs with the next entries in (tid, pre)
	// order — one tid per entry and, for a cursor whose entries bind w
	// nodes, w consecutive records per entry: len(refs) is len(tids)*w —
	// and returns how many entries it wrote, at most len(tids). Writing
	// none means the list is exhausted or failed to decode; Err
	// distinguishes the two, and NextBlock is not called again.
	NextBlock(tids []uint32, refs []postings.NodeRef) int
	// Skip moves the cursor past every entry of a tree below target and
	// returns how many entries it passed, so the next NextBlock starts at
	// tree target or later. A cursor that cannot seek passes nothing and
	// returns 0; NextBlock then delivers the gap and the stream steps over
	// it. A failure mid-skip is left for the next NextBlock and Err to
	// report.
	Skip(target uint32) int
	// Err reports the decode error that stopped NextBlock, if any.
	Err() error
}

// StreamRelation is one lazily-decoded join input: Slots as in
// Relation, entries read from Blocks or, when that is nil, pulled from
// Cursor one at a time.
type StreamRelation struct {
	Name  string // for diagnostics: the piece's key
	Slots []int  // query node bound by each entry column
	// Cursor is a per-entry (tid, pre)-sorted source, unused when Blocks
	// is set. No production relation sets it; it is declared only
	// because bench/layers.go names it, and tests use it as the
	// one-at-a-time reference.
	Cursor EntryCursor
	Blocks BlockCursor // batch (tid, pre)-sorted source
}

// window is how many entries a source's buffer holds before it has to
// be refilled: large enough that the per-refill work — one cursor call,
// one cancellation poll, the batch checks — vanishes per entry, small
// enough that a bounded search decodes little it will not use and that
// every window of a stream comes out of one small allocation. A source
// whose single tree holds more entries than this grows its own buffer.
const window = 32

// source is one relation's input: a window of decoded entries in flat
// form, refilled from the cursor a batch at a time. Entries before lo
// are consumed; win.tids[lo] is the head, the next undelivered entry.
type source struct {
	name   string
	cursor BlockCursor
	plain  entryBlocks // cursor, for a relation that supplied only an EntryCursor
	win    table
	lo     int    // the head's index in win; win.len() when there is no head
	base   int    // entries dropped off the front of win so far
	last   uint32 // tid of the newest entry read, for the order check
	eof    bool   // the cursor is exhausted or failed: no further refills
}

// live reports whether the source has a head.
func (c *source) live() bool { return c.lo < len(c.win.tids) }

// read is the source's logical position: how many entries have been its
// head so far. Entries decoded ahead of the head sit in the window
// uncounted, so the figure is exactly what a per-entry pull would have
// decoded and does not depend on the window size.
func (c *source) read() int {
	n := c.base + c.lo
	if c.live() {
		n++
	}
	return n
}

// entryBlocks fills a window from a per-entry cursor — the one place an
// EntryCursor is consumed, so relations with and without a batch decoder
// share the stream's whole align/collect/join path. Only bench's
// per-entry cursor and tests' references reach it.
type entryBlocks struct {
	cursor EntryCursor
	stride int
	done   bool  // the cursor ended or failed: it is not pulled again
	err    error // an entry of the wrong width
}

// NextBlock pulls up to len(tids) entries and copies them out of the
// cursor's scratch. Entries are a few records wide, so the copy is a
// loop: a memmove call per entry costs more than the records it moves.
// The entries ahead of a malformed one are handed over; the call after
// that hands over nothing, so the stream fails exactly at that entry.
func (a *entryBlocks) NextBlock(tids []uint32, refs []postings.NodeRef) int {
	if a.done {
		return 0
	}
	w := a.stride
	for k := range tids {
		e, ok := a.cursor.Next()
		if ok && len(e.Nodes) != w {
			a.err = fmt.Errorf("entry binds %d nodes, want %d", len(e.Nodes), w)
			ok = false
		}
		if !ok {
			a.done = true
			return k
		}
		tids[k] = e.TID
		dst := refs[k*w:][:w]
		for j := range dst {
			dst[j] = e.Nodes[j]
		}
	}
	return len(tids)
}

// Skip passes nothing: a per-entry cursor has no seek, so the stream
// steps over the gap entry by entry.
func (a *entryBlocks) Skip(uint32) int { return 0 }

// Err reports the malformed entry or the cursor's own decode error.
func (a *entryBlocks) Err() error {
	if a.err != nil {
		return a.err
	}
	return a.cursor.Err()
}

// Stream evaluates a join incrementally: Next emits the distinct
// (tid, root image) matches of the query root in global (tid, root)
// order, advancing the underlying cursors only as far as demanded.
// A Stream is single-use and not safe for concurrent use.
type Stream struct {
	ctx    context.Context
	cancel <-chan struct{} // ctx.Done(), fetched once: see cancelled

	srcs   []source
	blocks []table  // blocks[i]: the current tree's entries of srcs[i], a view into its window
	prog   *program // compiled from opt.Order by NewStreamOpts
	x      executor

	buf  []Match // matches of the current tid, drained in order
	bufI int

	stepRows int // rows produced by join steps
	done     bool
	err      error
}

// NewStreamOpts validates the inputs, compiles the join in the order
// opt.Order and returns a stream positioned before the first match.
// Relation, query and order requirements are those of Run; an
// empty posting list is not an error (the stream just produces
// nothing). Every relation's window is carved from two arrays allocated
// here, so a stream's set-up cost does not depend on the list lengths.
func NewStreamOpts(ctx context.Context, q *query.Query, rels []StreamRelation, opt Options) (*Stream, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("join: no relations")
	}
	slots := make([][]int, len(rels))
	width := 0
	for i, r := range rels {
		if len(r.Slots) == 0 {
			return nil, fmt.Errorf("join: relation %q has no slots", r.Name)
		}
		slots[i] = r.Slots
		width += len(r.Slots)
	}
	if err := validOrder(q, slots, opt.Order); err != nil {
		return nil, err
	}
	prog, err := compile(q, slots, opt.Order)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		ctx:    ctx,
		cancel: ctx.Done(),
		srcs:   make([]source, len(rels)),
		blocks: make([]table, len(rels)),
		prog:   prog,
		x:      executor{cc: canceller{ctx: ctx}},
	}
	tids := make([]uint32, window*len(rels))
	refs := make([]postings.NodeRef, window*width)
	for i, r := range rels {
		c := &s.srcs[i]
		stride := len(r.Slots)
		c.name, c.cursor = r.Name, r.Blocks
		if c.cursor == nil {
			c.plain = entryBlocks{cursor: r.Cursor, stride: stride}
			c.cursor = &c.plain
		}
		c.win = table{tids: tids[:0:window], refs: refs[: 0 : window*stride], stride: stride}
		tids, refs = tids[window:], refs[window*stride:]
		s.blocks[i].stride = stride
		// Prime the head. Once one source is known empty (or corrupt) no
		// tree can match, so the remaining cursors are not even read.
		if !s.done && !s.refill(c) {
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
// entries read plus intermediate rows produced by join steps.
func (s *Stream) Rows() int { return s.EntriesRead() + s.stepRows }

// EntriesRead reports how many posting entries the join has consumed so
// far — the stream's share of Rows attributable to input, the measure
// core reports as postings fetched for bounded evaluations. It is the
// sum of SourceRead over the relations.
func (s *Stream) EntriesRead() int {
	n := 0
	for i := range s.srcs {
		n += s.srcs[i].read()
	}
	return n
}

// SourceRead reports how many entries of relation i the join has
// consumed so far: those that have been the relation's head, which is
// what a per-entry pull would have decoded — entries decoded ahead of
// the head into the window do not count. Explain output reports it as a
// piece's actual cardinality.
func (s *Stream) SourceRead(i int) int { return s.srcs[i].read() }

// cancelled polls the context and, once it is done, records its error.
// The poll is a non-blocking receive on the Done channel: ctx.Err on a
// cancellable context takes the context's mutex, which under a server's
// per-request timeout costs more than the per-tree work it guards.
func (s *Stream) cancelled() bool {
	select {
	case <-s.cancel:
		s.err = s.ctx.Err()
		return true
	default:
		return false
	}
}

// refill reads the next batch of c's cursor into its window and reports
// whether any entry arrived; false means the source is exhausted or the
// stream failed (s.err). The entries from the head on are kept — moved
// to the window's front — and everything before it is dropped, so views
// into the window taken earlier are dead after this call. A window
// already full of kept entries (one tree's block outgrew it) moves to
// arrays of twice the size, so a batch always has room for an entry.
// This is also where the stream observes cancellation while it seeks or
// gathers: once per batch.
func (s *Stream) refill(c *source) bool {
	if c.eof || s.err != nil || s.cancelled() {
		return false
	}
	// A window's arrays hold the same number of entries: cap(w.refs) is
	// cap(w.tids)*w.stride, as carved by NewStreamOpts and as made here.
	w := &c.win
	room, kept := cap(w.tids), len(w.tids)-c.lo
	tids, refs := w.tids[:room], w.refs[:room*w.stride]
	if kept == room {
		room *= 2
		tids, refs = make([]uint32, room), make([]postings.NodeRef, room*w.stride)
	}
	copy(tids, w.tids[c.lo:])
	copy(refs, w.refs[c.lo*w.stride:])
	c.base += c.lo
	c.lo = 0
	n := c.cursor.NextBlock(tids[kept:], refs[kept*w.stride:])
	if n <= 0 {
		n = 0
		if err := c.cursor.Err(); err != nil {
			s.err = fmt.Errorf("join: relation %q: %w", c.name, err)
		}
	} else if n > room-kept {
		s.err = fmt.Errorf("join: relation %q: block of %d entries in room for %d", c.name, n, room-kept)
		n = 0
	}
	// The join relies on its input being tid-sorted; that is checked
	// here, once per batch, before any of it becomes a head. (The other
	// property, every entry binding the relation's width of nodes, holds
	// by construction for a batch and entry by entry in entryBlocks.)
	last := c.last
	for _, tid := range tids[kept : kept+n] {
		if tid < last {
			s.err = fmt.Errorf("join: relation %q is not tid-sorted", c.name)
			n = 0
			break
		}
		last = tid
	}
	c.last = last
	c.eof = n == 0
	w.tids, w.refs = tids[:kept+n], refs[:(kept+n)*w.stride]
	return n > 0
}

// fill advances to the next tid present in every source and joins its
// block, leaving the block's matches in buf. It sets done when any
// source is exhausted and err on failure or cancellation.
func (s *Stream) fill() {
	s.buf, s.bufI = s.buf[:0], 0
	for {
		if s.cancelled() {
			return
		}
		tid, ok := s.align()
		if !ok {
			return // done or err set
		}
		if !s.collect(tid) {
			return // a cursor failed mid-block
		}
		if err := s.joinBlock(); err != nil {
			s.err = err
			return
		}
		if len(s.buf) > 0 {
			return
		}
		// The block joined to nothing; move on to the next common tid.
	}
}

// align advances the heads until every one carries the same tid — the
// next tree that can possibly match — and returns it.
func (s *Stream) align() (uint32, bool) {
	for i := range s.srcs {
		if !s.srcs[i].live() {
			s.done = true
			return 0, false
		}
	}
	target := s.srcs[0].win.tids[s.srcs[0].lo] // source 0's head
	for {
		raised := false
		for i := range s.srcs {
			head, ok := s.seek(&s.srcs[i], target)
			if !ok {
				s.done = true
				return 0, false
			}
			if head > target {
				target = head
				raised = true
			}
		}
		if !raised {
			return target, true
		}
	}
}

// seek moves c's head to its first entry of tree target or later and
// returns that entry's tid: a scan over the window's flat tids that
// refills when it runs off the end (a window that ends below the target
// is passed over without the scan). Before a refill, a gap the window
// says is long is handed to the cursor's Skip, and the entries it
// passed count as read, exactly as if each had been the head in turn.
// ok is false when the source is exhausted or the stream failed.
func (s *Stream) seek(c *source, target uint32) (head uint32, ok bool) {
	for {
		tids, lo := c.win.tids, c.lo
		if n := len(tids); n > 0 && tids[n-1] < target {
			lo = n
		}
		for lo < len(tids) && tids[lo] < target {
			lo++
		}
		c.lo = lo
		if lo < len(tids) {
			return tids[lo], true
		}
		// The window's density estimates the gap left. A gap shorter than
		// a window costs less to decode and scan than a skip costs to set
		// up, so only a longer one is handed to the cursor.
		if n := len(tids); !c.eof && (n < 2 || uint64(target-tids[n-1])*uint64(n) >= window*(uint64(tids[n-1]-tids[0])+1)) {
			c.base += c.cursor.Skip(target)
		}
		if !s.refill(c) {
			return 0, false
		}
	}
}

// collect points blocks at each source's run of entries for tid and
// moves the heads past them, onto the first entry of a later tree. A run
// that reaches the window's end may continue in the next batch, so the
// window is refilled — keeping the run — until a later tree or the end
// of the list shows.
func (s *Stream) collect(tid uint32) bool {
	for i := range s.srcs {
		c := &s.srcs[i]
		hi := c.lo
		for {
			tids := c.win.tids
			for hi < len(tids) && tids[hi] == tid {
				hi++
			}
			if hi < len(tids) || c.eof {
				break
			}
			run := hi - c.lo
			if !s.refill(c) && s.err != nil {
				return false
			}
			hi = run // refill moved the run to the window's front
		}
		w := &c.win
		s.blocks[i].tids, s.blocks[i].refs = w.tids[c.lo:hi], w.refs[c.lo*w.stride:hi*w.stride]
		c.lo = hi
	}
	return true
}

// joinBlock runs the compiled join over the current single-tid blocks,
// leaving the block's distinct matches in buf sorted by root and adding
// the intermediate rows to the work counter.
func (s *Stream) joinBlock() error {
	final, rows, err := s.x.run(s.prog, s.blocks)
	s.stepRows += rows
	if err != nil {
		return err
	}
	s.buf, _ = s.x.project(final, s.prog.rootCol, s.buf, false)
	return nil
}
