package core

// This file is the one window rule of every partitioned answer. The
// engine's leaves and the router's groups hold contiguous tid ranges,
// so a query's global (tid, root) order is partition 0's matches, then
// partition 1's, and so on. A window skips Offset leading matches,
// takes Limit, and is truncated when more matches exist than it holds
// or when partitions were left unconsulted. Merge applies the rule to
// whole partition answers (Search, count-only Search and SearchBatch,
// and the router's unary paths); Cut applies it one match at a time
// (SearchStream and the router's /stream).

// clipped is the clipped-partition rule. A partition asked for its
// leading asked matches (asked <= 0: all of them) that reports
// truncated with fewer stopped short of matches that exist: a node
// clamps the window it is asked for to its own match cap. Matches of
// later partitions would land after a gap, so a clipped partition ends
// the window, flagged truncated — the result stays a valid prefix.
func clipped(asked, got int, truncated bool) bool {
	return truncated && (asked <= 0 || got < asked)
}

// Merge folds in-order partition answers into one window. Partition i
// is asked for its leading Ask() matches, and its answer is folded by
// Add in partition order. Result builds the window once, at its exact
// size.
type Merge struct {
	opts      SearchOpts
	target    int       // opts.Target(); 0 = unbounded or a count
	bases     []uint32  // bases[i] = first global tid of partition i
	parts     [][]Match // folded partitions' matches, partition-local; nil for a count
	held      int       // matches held across parts
	count     int       // matches found by the folded partitions
	consulted int       // partitions folded
	clipped   bool      // a folded partition was clipped
}

// NewMerge starts the merge of one query's window over partitions
// based at bases.
func NewMerge(opts SearchOpts, bases []uint32) *Merge {
	m := &Merge{opts: opts, bases: bases}
	if !opts.CountOnly {
		m.target = opts.Target()
		m.parts = make([][]Match, len(bases))
	}
	return m
}

// Ask is the Limit every partition is asked for: its leading
// Offset+Limit matches, or -1 (all of them) when the window is
// unbounded or a count. A positive Ask is a bounded window, which
// partitions are consulted lazily for.
func (m *Merge) Ask() int {
	if m.target == 0 {
		return -1
	}
	return m.target
}

// Add folds partition i's answer: its leading matches in (tid, root)
// order with partition-local tids, the count it found and whether it
// reported truncated. It reports the merge full: the window's leading
// matches are all folded, or the partition was clipped, after which
// later answers are ignored.
func (m *Merge) Add(i int, ms []Match, count int, truncated bool) (full bool) {
	m.consulted++
	if m.clipped {
		return true
	}
	if m.parts != nil {
		m.parts[i] = ms
		m.held += len(ms)
	}
	m.count += count
	m.clipped = clipped(m.target, len(ms), truncated)
	return m.clipped || m.target > 0 && m.count >= m.target
}

// Result cuts the window out of the folded matches, rebased to global
// tids (nil for a count). count is the matches found; truncated
// reports that count is only a lower bound: more matches were found
// than the window holds, a partition was clipped, or partitions were
// never folded. Each partition answered its leading matches, so the
// first Offset+Limit of their concatenation are the global order's.
func (m *Merge) Result() (ms []Match, count int, truncated bool) {
	truncated = m.clipped || m.consulted < len(m.bases) || m.target > 0 && m.count > m.target
	if m.opts.CountOnly {
		return nil, m.count, truncated
	}
	skip := max(m.opts.Offset, 0)
	n := max(m.held-skip, 0)
	if m.opts.Limit > 0 {
		n = min(n, m.opts.Limit)
	}
	ms = make([]Match, 0, n)
	for i, part := range m.parts {
		for _, x := range part {
			switch {
			case skip > 0:
				skip--
			case len(ms) < n:
				ms = append(ms, Match{TID: x.TID + m.bases[i], Root: x.Root})
			}
		}
	}
	return ms, m.count, truncated
}

// Cut applies the window to a match stream in global order, one match
// at a time: it skips the offset, takes the limit and peeks one match
// past it, so its Count and Truncated are what Merge reports for the
// same window.
type Cut struct {
	target, offset int
	// Count is the number of matches offered, offset-skipped ones and
	// the peek included.
	Count int
	// Truncated reports that the stream ended short of its end, so
	// Count is only a lower bound.
	Truncated bool
	// Done reports that the stream needs no further match.
	Done bool
}

// NewCut starts the cut of one stream's window.
func NewCut(opts SearchOpts) Cut {
	return Cut{target: opts.Target(), offset: max(opts.Offset, 0)}
}

// Ask is the Limit the rest of the stream is asked for: the matches
// still needed, the peek included, or -1 (all of them) when the window
// is unbounded.
func (c *Cut) Ask() int {
	if c.target == 0 {
		return -1
	}
	return c.target + 1 - c.Count
}

// Take offers the next match and reports whether it is in the window.
// The match past the window — the peek — proves that more matches
// exist than the window holds: it ends the stream, truncated.
func (c *Cut) Take() bool {
	c.Count++
	if c.target > 0 && c.Count > c.target {
		c.Stop()
		return false
	}
	return c.Count > c.offset
}

// End closes a partition; more reports that partitions remain. The
// stream is done after the last one. A full window stops at a
// partition's end, truncated: whether later partitions hold matches is
// unknown and not worth their work.
func (c *Cut) End(more bool) {
	switch {
	case !more:
		c.Done = true
	case c.target > 0 && c.Count >= c.target:
		c.Stop()
	}
}

// Clip ends the stream, truncated, when a partition asked for asked
// matches answered got and reported truncated short of them (see
// clipped).
func (c *Cut) Clip(asked, got int, truncated bool) {
	if clipped(asked, got, truncated) {
		c.Stop()
	}
}

// Stop ends the stream before its natural end: the window is full, a
// partition was clipped, or the consumer went away.
func (c *Cut) Stop() { c.Truncated, c.Done = true, true }
