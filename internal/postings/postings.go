// Package postings implements the three posting-list coding schemes of
// the paper (§4.4) as compact wire formats with streaming iterators:
//
//   - filter-based: a delta-varint sorted list of tree identifiers; no
//     structural information, so query evaluation needs a filtering
//     (post-validation) phase;
//   - root-split: one ⟨tid, pre, post, level⟩ record per *distinct root
//     occurrence* of the key — instances sharing tid and root collapse
//     into one posting (§6.2.1), and lists are (tid, pre)-sorted so root
//     joins are pure merge joins;
//   - subtree-interval: one record per *instance*, carrying
//     ⟨pre, post, level, order⟩ for every node of the key in canonical
//     slot order (§4.4.2).
//
// All integers are unsigned varints; tids are delta-coded across
// records.
//
// Decoding is safe for concurrent use: an iterator keeps its entire
// cursor state per instance and only reads the posting blob it was
// constructed over, so any number of goroutines may iterate (their own
// iterators over) shared blobs at once — which is what the sharded
// query fan-out does.
package postings

import (
	"encoding/binary"
	"fmt"
)

// Coding identifies one of the three schemes.
type Coding uint8

// The three coding schemes of §4.4, in the paper's presentation order.
// FilterBased stores bare tree ids, RootSplit one record per distinct
// key-root occurrence, SubtreeInterval one record per instance with
// all node slots.
const (
	FilterBased Coding = iota
	RootSplit
	SubtreeInterval
)

// String returns the scheme name as used in the paper's figures.
func (c Coding) String() string {
	switch c {
	case FilterBased:
		return "filter-based"
	case RootSplit:
		return "root-split"
	case SubtreeInterval:
		return "subtree-interval"
	default:
		return fmt.Sprintf("Coding(%d)", uint8(c))
	}
}

// ParseCoding converts a scheme name to its Coding.
func ParseCoding(s string) (Coding, error) {
	switch s {
	case "filter-based", "filter":
		return FilterBased, nil
	case "root-split", "rootsplit":
		return RootSplit, nil
	case "subtree-interval", "interval":
		return SubtreeInterval, nil
	}
	return 0, fmt.Errorf("postings: unknown coding %q", s)
}

// NodeRef is the structural record of one node of an instance: the
// ⟨l, r, v, o⟩ tuple of §4.4.2 under our dense pre/post numbering.
type NodeRef struct {
	Pre   uint32 // pre-visit rank (interval left endpoint)
	Post  uint32 // post-visit rank (interval right endpoint)
	Level uint32 // depth in the data tree
	Order uint32 // pre-order rank in the data tree (== Pre here; kept for paper parity)
}

// RefArena amortizes NodeRef slice allocations across many decoded
// posting entries: Take carves fixed-size slices out of chunked
// backing arrays, so decoding a whole posting list costs one
// allocation per chunk instead of one per entry. Slices returned by
// Take stay valid for the arena's lifetime (retired chunks are kept
// alive by the entries referencing them); the arena itself is
// per-cursor or per-query and must not be shared across goroutines.
//
// Query evaluation no longer carves from an arena — cursors decode into
// the join stream's own windows. The type stays declared only because
// the frozen benchmark's decode probes (bench/layers.go) name it.
type RefArena struct {
	buf []NodeRef
}

// refArenaChunk is the minimum backing-array size Take allocates.
const refArenaChunk = 1024

// Take returns a fresh slice of n NodeRefs for the caller to fill,
// carved from the current chunk (a new chunk is allocated when the
// current one is exhausted). The full-slice expression keeps later
// Takes from aliasing earlier ones.
func (a *RefArena) Take(n int) []NodeRef {
	if n <= 0 {
		return nil
	}
	if len(a.buf)+n > cap(a.buf) {
		sz := refArenaChunk
		if n > sz {
			sz = n
		}
		a.buf = make([]NodeRef, 0, sz)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return a.buf[start : start+n : start+n]
}

// RootEntry is one root-split posting.
type RootEntry struct {
	TID     uint32 // tree identifier
	NodeRef        // structural numbers of the key-instance root
}

// IntervalEntry is one subtree-interval posting: an instance of a key
// with one NodeRef per key slot (canonical pre-order).
type IntervalEntry struct {
	TID   uint32    // tree identifier
	Nodes []NodeRef // one record per key slot, canonical pre-order
}

func putUvarint(buf []byte, x uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], x)
	return append(buf, tmp[:n]...)
}

// ---------- filter-based ----------

// FilterAccumulator builds a filter-based posting list. TIDs must be
// added in non-decreasing order; duplicates collapse.
type FilterAccumulator struct {
	buf     []byte
	lastTID uint32
	n       int
}

// Add records that the key occurs in tree tid.
func (a *FilterAccumulator) Add(tid uint32) {
	if a.n > 0 && tid == a.lastTID {
		return
	}
	if a.n > 0 && tid < a.lastTID {
		panic("postings: filter tids out of order")
	}
	a.buf = putUvarint(a.buf, uint64(tid-a.lastTID))
	a.lastTID = tid
	a.n++
}

// Count returns the number of postings.
func (a *FilterAccumulator) Count() int { return a.n }

// Bytes returns the wire form.
func (a *FilterAccumulator) Bytes() []byte { return a.buf }

// FilterIterator streams tids out of a filter-based posting list.
type FilterIterator struct {
	buf []byte
	off int
	tid uint32
	err error
}

// NewFilterIterator returns an iterator over the wire form buf.
func NewFilterIterator(buf []byte) *FilterIterator {
	return &FilterIterator{buf: buf}
}

// Next advances and returns false at the end of the list.
func (it *FilterIterator) Next() bool {
	if it.err != nil || it.off >= len(it.buf) {
		return false
	}
	d, n := binary.Uvarint(it.buf[it.off:])
	if n <= 0 {
		it.err = fmt.Errorf("postings: corrupt filter list at offset %d", it.off)
		return false
	}
	it.off += n
	it.tid += uint32(d)
	return true
}

// TID returns the current tree identifier.
func (it *FilterIterator) TID() uint32 { return it.tid }

// Err reports a decoding error, if any.
func (it *FilterIterator) Err() error { return it.err }

// ---------- root-split ----------

// RootAccumulator builds a root-split posting list. Occurrences must be
// added in (tid, pre) order; occurrences with identical (tid, pre)
// collapse into a single posting — the size reduction the paper credits
// root-split coding with.
type RootAccumulator struct {
	buf      []byte
	lastTID  uint32
	lastPre  uint32
	n        int
	dedupOff bool // when true, symmetric instances are NOT collapsed (ablation)
}

// NewRootAccumulator returns an empty accumulator. dedup should be true
// except in the ablation bench.
func NewRootAccumulator(dedup bool) *RootAccumulator {
	return &RootAccumulator{dedupOff: !dedup}
}

// Add records an occurrence with the given root structural numbers.
func (a *RootAccumulator) Add(tid uint32, root NodeRef) {
	if a.n > 0 {
		if tid < a.lastTID || (tid == a.lastTID && root.Pre < a.lastPre) {
			panic("postings: root-split occurrences out of order")
		}
		if !a.dedupOff && tid == a.lastTID && root.Pre == a.lastPre {
			return
		}
	}
	if a.n == 0 || tid != a.lastTID {
		a.buf = putUvarint(a.buf, uint64(tid-a.lastTID)+1) // tid delta+1, 0 reserved
		a.buf = putUvarint(a.buf, uint64(root.Pre))
	} else {
		a.buf = putUvarint(a.buf, 0) // same tid marker
		a.buf = putUvarint(a.buf, uint64(root.Pre-a.lastPre))
	}
	a.buf = putUvarint(a.buf, uint64(root.Post))
	a.buf = putUvarint(a.buf, uint64(root.Level))
	a.lastTID = tid
	a.lastPre = root.Pre
	a.n++
}

// Count returns the number of postings.
func (a *RootAccumulator) Count() int { return a.n }

// Bytes returns the wire form.
func (a *RootAccumulator) Bytes() []byte { return a.buf }

// RootIterator streams root-split postings in (tid, pre) order.
type RootIterator struct {
	buf []byte
	off int
	tid uint32
	// The current posting's structural numbers, packed two to a word
	// (post<<32 | pre, order<<32 | level). Entry is inlined into loops
	// that call it right after Next and copy the record with 8-byte
	// moves; were Next to leave four freshly written 4-byte fields
	// behind, each of those loads would straddle two pending stores and
	// stall until they retire (a store-forwarding miss, a tenth of a
	// streamed evaluation's time when measured). Words written whole
	// are read back whole.
	prePost, levelOrder uint64
	first               bool
	err                 error
}

// NewRootIterator returns an iterator over the wire form buf.
func NewRootIterator(buf []byte) *RootIterator {
	return &RootIterator{buf: buf, first: true}
}

// Next advances; false at end or on error. It is the innermost loop of
// every root-split evaluation, so the offset lives in a local and a
// record of four one-byte varints — nearly every record of a long
// list, where tid deltas are small and pre, post and level are bounded
// by the tree size — is decoded without a call.
func (it *RootIterator) Next() bool {
	buf, off := it.buf, it.off
	if it.err != nil || off >= len(buf) {
		return false
	}
	var marker, pre, post, level uint64
	if b := buf[off:]; len(b) >= 4 && b[0]|b[1]|b[2]|b[3] < 0x80 {
		marker, pre, post, level = uint64(b[0]), uint64(b[1]), uint64(b[2]), uint64(b[3])
		off += 4
	} else {
		v, next, ok := uvarint4(buf, off)
		if !ok {
			it.err = fmt.Errorf("postings: corrupt root-split list at offset %d", next)
			return false
		}
		marker, pre, post, level, off = v[0], v[1], v[2], v[3], next
	}
	p := uint32(pre)
	if marker == 0 {
		if it.first {
			it.err = fmt.Errorf("postings: root-split list starts with same-tid marker")
			return false
		}
		p += uint32(it.prePost)
	} else {
		it.tid += uint32(marker - 1)
	}
	it.prePost = uint64(uint32(post))<<32 | uint64(p)
	it.levelOrder = uint64(p)<<32 | uint64(uint32(level))
	it.first = false
	it.off = off
	return true
}

// NextBlock is the batch form of Next: it decodes up to len(tids)
// records — refs must be at least as long — into tids[i] and refs[i]
// and returns how many it produced. A short count means the list ended
// or a record failed to decode; the records before the failure are
// delivered, Err reports it, and every later call returns 0, so the
// sequence of records and the error are exactly those of a Next/Entry
// loop over the same bytes. Next and NextBlock may be interleaved.
//
// One loop carries offset, tid and previous pre in locals. A record of
// four one-byte varints is one 32-bit load and a mask test, and the
// same-tid marker selects arithmetically between "pre is a delta, tid
// stays" and "pre is absolute, tid advances": on real lists that choice
// is close to a coin flip per record, and as a branch it mispredicts
// often enough to cost more than the whole rest of the loop.
func (it *RootIterator) NextBlock(tids []uint32, refs []NodeRef) int {
	n := len(tids)
	refs = refs[:n]
	i := 0
	if it.first && n > 0 {
		// The leading-marker check belongs to the first record alone.
		if !it.Next() {
			return 0
		}
		e := it.Entry()
		tids[0], refs[0], i = e.TID, e.NodeRef, 1
	}
	if it.err != nil {
		return i
	}
	buf, off := it.buf, it.off
	tid, pre := it.tid, uint32(it.prePost)
	for i < n && off < len(buf) {
		if len(buf)-off >= 4 && binary.LittleEndian.Uint32(buf[off:])&0x80808080 == 0 {
			var k int
			k, off, tid, pre = rootRun(buf, off, tids[i:], refs[i:], tid, pre)
			i += k
			continue
		}
		// A record the fast run does not take: a multi-byte varint, or the
		// last bytes of the blob.
		v, next, ok := uvarint4(buf, off)
		if !ok {
			it.err = fmt.Errorf("postings: corrupt root-split list at offset %d", next)
			break
		}
		if v[0] == 0 {
			pre += uint32(v[1])
		} else {
			tid += uint32(v[0] - 1)
			pre = uint32(v[1])
		}
		off = next
		tids[i] = tid
		refs[i] = NodeRef{Pre: pre, Post: uint32(v[2]), Level: uint32(v[3]), Order: pre}
		i++
	}
	if it.off != off {
		last := refs[i-1]
		it.off, it.tid = off, tid
		it.prePost = uint64(last.Post)<<32 | uint64(last.Pre)
		it.levelOrder = uint64(last.Pre)<<32 | uint64(last.Level)
	}
	return i
}

// rootRun is NextBlock's inner loop: starting at buf[off:], after a
// record of tree tid rooted at pre, it decodes consecutive records made
// of four one-byte varints into tids and refs until tids is full, fewer
// than four bytes remain, or a record holds a multi-byte varint. It
// returns how many it decoded, the offset after them, and the tid and
// pre of the last. The loop makes no calls and carries only offset, tid
// and pre, so all of its state stays in registers.
func rootRun(buf []byte, off int, tids []uint32, refs []NodeRef, tid, pre uint32) (int, int, uint32, uint32) {
	refs = refs[:len(tids)]
	i := 0
	for ; i < len(tids) && len(buf)-off >= 4; i++ {
		w := binary.LittleEndian.Uint32(buf[off:])
		if w&0x80808080 != 0 {
			break
		}
		m := w & 0xff
		same := -((m - 1) >> 31) // all ones for the same-tid marker 0
		tid += (m - 1) &^ same
		pre = w>>8&0xff + pre&same
		off += 4
		tids[i] = tid
		refs[i] = NodeRef{Pre: pre, Post: w >> 16 & 0xff, Level: w >> 24, Order: pre}
	}
	return i, off, tid, pre
}

// uvarint4 decodes four consecutive varints starting at buf[off:] and
// returns the offset just past them; on a truncated or overlong varint
// ok is false and next is the offset it starts at.
func uvarint4(buf []byte, off int) (v [4]uint64, next int, ok bool) {
	for i := range v {
		x, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return v, off, false
		}
		v[i] = x
		off += n
	}
	return v, off, true
}

// Entry returns the current posting.
func (it *RootIterator) Entry() RootEntry {
	pp, lo := it.prePost, it.levelOrder
	return RootEntry{TID: it.tid, NodeRef: NodeRef{
		Pre: uint32(pp), Post: uint32(pp >> 32), Level: uint32(lo), Order: uint32(lo >> 32),
	}}
}

// Err reports a decoding error, if any.
func (it *RootIterator) Err() error { return it.err }

// ---------- subtree-interval ----------

// IntervalAccumulator builds a subtree-interval posting list: one record
// per instance, in (tid, root pre) order.
type IntervalAccumulator struct {
	buf     []byte
	lastTID uint32
	n       int
}

// Add records one instance with the structural numbers of all its key
// slots (canonical order; nodes[0] is the root).
func (a *IntervalAccumulator) Add(tid uint32, nodes []NodeRef) {
	if a.n > 0 && tid < a.lastTID {
		panic("postings: interval occurrences out of order")
	}
	a.buf = putUvarint(a.buf, uint64(tid-a.lastTID))
	a.buf = putUvarint(a.buf, uint64(len(nodes)))
	for _, nd := range nodes {
		a.buf = putUvarint(a.buf, uint64(nd.Pre))
		a.buf = putUvarint(a.buf, uint64(nd.Post))
		a.buf = putUvarint(a.buf, uint64(nd.Level))
		a.buf = putUvarint(a.buf, uint64(nd.Order))
	}
	a.lastTID = tid
	a.n++
}

// Count returns the number of postings.
func (a *IntervalAccumulator) Count() int { return a.n }

// Bytes returns the wire form.
func (a *IntervalAccumulator) Bytes() []byte { return a.buf }

// IntervalIterator streams subtree-interval postings.
type IntervalIterator struct {
	buf   []byte
	off   int
	tid   uint32
	nodes []NodeRef
	err   error
}

// NewIntervalIterator returns an iterator over the wire form buf.
func NewIntervalIterator(buf []byte) *IntervalIterator {
	return &IntervalIterator{buf: buf}
}

// Next advances; false at end or on error.
func (it *IntervalIterator) Next() bool {
	if it.err != nil || it.off >= len(it.buf) {
		return false
	}
	d, ok := it.uv()
	if !ok {
		return false
	}
	it.tid += uint32(d)
	m, ok := it.uv()
	if !ok {
		return false
	}
	if m == 0 || m > 64 {
		it.err = fmt.Errorf("postings: implausible instance size %d", m)
		return false
	}
	it.nodes = it.nodes[:0]
	for i := uint64(0); i < m; i++ {
		pre, ok1 := it.uv()
		post, ok2 := it.uv()
		level, ok3 := it.uv()
		order, ok4 := it.uv()
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return false
		}
		it.nodes = append(it.nodes, NodeRef{
			Pre: uint32(pre), Post: uint32(post), Level: uint32(level), Order: uint32(order),
		})
	}
	return true
}

func (it *IntervalIterator) uv() (uint64, bool) {
	v, n := binary.Uvarint(it.buf[it.off:])
	if n <= 0 {
		it.err = fmt.Errorf("postings: corrupt interval list at offset %d", it.off)
		return 0, false
	}
	it.off += n
	return v, true
}

// TID returns the current posting's tree identifier.
func (it *IntervalIterator) TID() uint32 { return it.tid }

// Nodes returns the current posting's slot records; the slice is reused
// across Next calls — copy it to retain.
func (it *IntervalIterator) Nodes() []NodeRef { return it.nodes }

// Entry returns a copy of the current posting.
func (it *IntervalIterator) Entry() IntervalEntry {
	return IntervalEntry{TID: it.tid, Nodes: append([]NodeRef(nil), it.nodes...)}
}

// Err reports a decoding error, if any.
func (it *IntervalIterator) Err() error { return it.err }
