package core

import (
	"slices"
	"sync"
	"unsafe"

	"repro/internal/postings"
	"repro/internal/subtree"
)

// This file is a root-split leaf's memo of decoded posting lists — the
// data-side twin of the epoch's plan map. A few frequent tag-only keys
// carry most of the postings a query workload reads, and every
// evaluation used to varint-decode them again. The memo keeps each such
// list, once fetched a second time, as the flat arrays the join stream
// reads, on the heap (never a view into the mapping: mmap stays the
// only page cache), and serves later reads by copying from them. A
// segment is immutable, so an entry never goes stale: the memo lives
// and dies with its leaf, across publishes, and tombstones stay the
// reading cursor's business. The B+Tree point read still runs on a hit
// — it finds absent keys, checks the count prefix and counts the fetch
// — so only the decode and the skip-table walk are saved, and every
// work counter reads as on a streamed evaluation.

// listMemoFactor bounds a leaf's memo at this multiple of its index
// file's bytes. A decoded posting is 16 bytes — a tid and a
// three-number NodeRef — against the four or five of its wire form, so
// the bound holds the decoded form of somewhat more than half a leaf's
// postings, and the frequent keys that a workload repeats hold most of
// them.
const listMemoFactor = 2

// decodedList is one root-split posting list decoded in full: tids[i]
// and refs[i] are its i-th posting, as RootIterator.NextBlock writes
// them. It is never written after admission.
type decodedList struct {
	tids []uint32
	refs []postings.NodeRef
}

// listBytes is the heap footprint of a decoded list of n postings, the
// unit of the memo's bound.
func listBytes(n int) int64 {
	return int64(n) * int64(unsafe.Sizeof(uint32(0))+unsafe.Sizeof(postings.NodeRef{}))
}

// listMemo is a leaf's memo of decoded root-split lists. A list is
// admitted on the second evaluation that fetches its key, and only if
// it carries a skip table (more than one 64-record block): shorter
// lists decode in less time than a copy saves. The keys seen once are
// remembered until then; only keys of tabled lists are, and such a
// list takes at least 256 bytes of the index file, so that set stays a
// small fraction of the file. An admission that would take the decoded
// bytes past limit first clears the memo wholesale — lists and seen
// keys — as the epoch's plan map does when full; a list larger than the
// whole bound is never decoded. Safe for concurrent use.
type listMemo struct {
	limit int64 // bound on bytes

	mu    sync.Mutex
	lists map[subtree.Key]*decodedList
	seen  map[subtree.Key]bool // keys fetched once; true once the list failed to decode
	bytes int64

	hits, admissions, clears uint64
}

// memoStats is a view of decoded-list memos, summed over the leaves
// that hold them.
type memoStats struct {
	// Lists and Bytes are the decoded lists held and their heap bytes.
	Lists int
	Bytes int64
	// Hits counts evaluations served from a held list, Admissions lists
	// decoded into the memo, Clears wholesale clears at the bound.
	Hits, Admissions, Clears uint64
}

// add accumulates o into s.
func (s *memoStats) add(o memoStats) {
	s.Lists += o.Lists
	s.Bytes += o.Bytes
	s.Hits += o.Hits
	s.Admissions += o.Admissions
	s.Clears += o.Clears
}

// newListMemo returns an empty memo for a leaf whose index file holds
// fileBytes.
func newListMemo(fileBytes int64) *listMemo {
	return &listMemo{
		limit: listMemoFactor * fileBytes,
		lists: make(map[subtree.Key]*decodedList),
		seen:  make(map[subtree.Key]bool),
	}
}

// get returns the decoded form of key k's list, whose count prefix and
// wire form the caller just read, or nil when the list is to be
// streamed from payload: an untabled or oversized list, a key fetched
// for the first time, or a list that fails to decode — which is never
// admitted, nor decoded again, so the streaming cursor meets its fault
// where it always did.
func (m *listMemo) get(k subtree.Key, count int, payload []byte) *decodedList {
	if m == nil || !postings.RootTabled(payload) || listBytes(count) > m.limit {
		return nil
	}
	m.mu.Lock()
	if d, ok := m.lists[k]; ok {
		m.hits++
		m.mu.Unlock()
		return d
	}
	refused, again := m.seen[k]
	if !again {
		m.seen[k] = false
	}
	m.mu.Unlock()
	if !again || refused {
		return nil
	}
	tids, refs, err := postings.DecodeRootList(payload, count)
	if err != nil {
		m.mu.Lock()
		m.seen[k] = true
		m.mu.Unlock()
		return nil
	}
	return m.admit(k, &decodedList{tids: tids, refs: refs})
}

// admit stores d under k, clearing the memo first when d would take it
// past its bound, and returns the list to serve: one a concurrent
// admission stored first wins, so a key is held, and counted, once.
func (m *listMemo) admit(k subtree.Key, d *decodedList) *decodedList {
	size := listBytes(len(d.tids))
	m.mu.Lock()
	defer m.mu.Unlock()
	if held, ok := m.lists[k]; ok {
		return held
	}
	if m.bytes+size > m.limit {
		clear(m.lists)
		clear(m.seen)
		m.bytes = 0
		m.clears++
	}
	m.lists[k] = d
	m.bytes += size
	m.admissions++
	return d
}

// stats reports the memo's contents and counters; zero on a nil memo.
func (m *listMemo) stats() memoStats {
	if m == nil {
		return memoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return memoStats{Lists: len(m.lists), Bytes: m.bytes, Hits: m.hits, Admissions: m.admissions, Clears: m.clears}
}

// memoCursor is rootCursor's twin over a decoded list: NextBlock copies
// postings out of the arrays instead of decoding them, and Skip
// binary-searches instead of walking the skip table. Tombstoned
// postings are squeezed out as rootCursor does, and Skip stops at the
// next tombstoned tree as rootCursor's does, so every posting it passes
// is live and the stream counts exactly the entries it counts over the
// wire form.
type memoCursor struct {
	list *decodedList
	pos  int // the next posting to deliver
	dels TombScan
	slot [1]int // the piece root, backing the relation's Slots
}

// NextBlock copies the next surviving postings into tids and refs and
// returns how many it wrote; 0 means the list has ended.
func (c *memoCursor) NextBlock(tids []uint32, refs []postings.NodeRef) int {
	for {
		n := copy(tids, c.list.tids[c.pos:])
		copy(refs[:n], c.list.refs[c.pos:])
		c.pos += n
		if kept := c.dels.squeeze(tids[:n], refs[:n]); kept > 0 || n == 0 {
			return kept
		}
	}
}

// Skip moves to the first posting of tree target or later — or of the
// next tombstoned tree, if that comes first — and returns how many
// postings it passed.
func (c *memoCursor) Skip(target uint32) int {
	rest := c.list.tids[c.pos:]
	if len(rest) == 0 {
		return 0
	}
	if len(c.dels.tids) > 0 {
		// Probing the next posting's tree drops the tombstones below it,
		// so the first one left is the next that can lie in the gap.
		c.dels.Has(rest[0])
		if dead, ok := c.dels.first(); ok && dead < target {
			target = dead
		}
	}
	n, _ := slices.BinarySearch(rest, target)
	c.pos += n
	return n
}

// Err reports nothing: a decoded list has no faults left to find.
func (c *memoCursor) Err() error { return nil }
