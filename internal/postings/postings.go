// Package postings implements the three posting-list coding schemes of
// the paper (§4.4) as compact wire formats with streaming iterators:
//
//   - filter-based: a delta-varint sorted list of tree identifiers; no
//     structural information, so query evaluation needs a filtering
//     (post-validation) phase;
//   - root-split: one ⟨tid, pre, post, level⟩ record per *distinct root
//     occurrence* of the key — instances sharing tid and root collapse
//     into one posting (§6.2.1), and lists are (tid, pre)-sorted so root
//     joins are pure merge joins; a list longer than one skip block
//     carries a skip table, so a seek can step over whole blocks;
//   - subtree-interval: one record per *instance*, carrying
//     ⟨pre, post, level, order⟩ for every node of the key in canonical
//     slot order (§4.4.2); order is the pre-order rank, so it repeats
//     pre, and the decoder reads it and drops it.
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
// ⟨l, r, v, o⟩ tuple of §4.4.2 under our dense pre/post numbering, held
// as three numbers. The fourth, o, is the pre-order rank, which equals
// Pre; only the subtree-interval wire form still stores it, so that
// Table 1's index sizes are the paper's.
type NodeRef struct {
	Pre   uint32 // pre-visit rank (interval left endpoint)
	Post  uint32 // post-visit rank (interval right endpoint)
	Level uint32 // depth in the data tree
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
	a.buf = binary.AppendUvarint(a.buf, uint64(tid-a.lastTID))
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

// Intersect returns the tids present in every one of the ascending tid
// lists, starting from the shortest so an empty result ends the merge
// early (the join phase of the filter coding, §4.4.1). The result may
// share storage with one of the lists.
func Intersect(lists [][]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	smallest := 0
	for i := range lists {
		if len(lists[i]) < len(lists[smallest]) {
			smallest = i
		}
	}
	cur := lists[smallest]
	for i, l := range lists {
		if i == smallest {
			continue
		}
		var next []uint32
		for a, b := 0, 0; a < len(cur) && b < len(l); {
			switch {
			case cur[a] < l[b]:
				a++
			case cur[a] > l[b]:
				b++
			default:
				next = append(next, cur[a])
				a++
				b++
			}
		}
		if cur = next; len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// ---------- root-split ----------

// RootSkipBlock is the size of a root-split list's skip blocks: a block
// closes at the first tree boundary after it holds this many records.
// It is part of the wire format, not a tuning knob — an index records
// it in its meta, and one written with another block size (or none) is
// refused at open.
const RootSkipBlock = 64

// RootAccumulator builds a root-split posting list. Occurrences must be
// added in (tid, pre) order; occurrences with identical (tid, pre)
// collapse into a single posting — the size reduction the paper credits
// root-split coding with.
//
// A list of one skip block is its records alone. A longer one is
// prefixed by its skip table (see AppendTo): a block always ends at a
// tree boundary, so each block's first record starts a new tree and
// carries an absolute pre, and a reader can step over whole blocks
// without decoding them.
type RootAccumulator struct {
	buf      []byte
	lastTID  uint32
	lastPre  uint32
	n        int
	dedupOff bool // when true, symmetric instances are NOT collapsed (ablation)

	table     []byte // the skip entries of the closed blocks
	tableLast uint32 // last tid of the last closed block
	blockOff  int    // offset in buf of the open block's first record
	blockN    int    // records in the open block
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
		if a.blockN >= RootSkipBlock {
			a.table = appendSkipEntry(a.table, a.lastTID-a.tableLast, a.blockN, len(a.buf)-a.blockOff)
			a.tableLast, a.blockOff, a.blockN = a.lastTID, len(a.buf), 0
		}
		a.buf = binary.AppendUvarint(a.buf, uint64(tid-a.lastTID)+1) // tid delta+1, 0 reserved
		a.buf = binary.AppendUvarint(a.buf, uint64(root.Pre))
	} else {
		a.buf = binary.AppendUvarint(a.buf, 0) // same tid marker
		a.buf = binary.AppendUvarint(a.buf, uint64(root.Pre-a.lastPre))
	}
	a.buf = binary.AppendUvarint(a.buf, uint64(root.Post))
	a.buf = binary.AppendUvarint(a.buf, uint64(root.Level))
	a.lastTID = tid
	a.lastPre = root.Pre
	a.n++
	a.blockN++
}

// appendSkipEntry appends one skip-table entry: the block's last tid as
// a delta from the previous block's, its record count and its length in
// bytes.
func appendSkipEntry(dst []byte, lastDelta uint32, count, bytes int) []byte {
	dst = binary.AppendUvarint(dst, uint64(lastDelta))
	dst = binary.AppendUvarint(dst, uint64(count))
	return binary.AppendUvarint(dst, uint64(bytes))
}

// Count returns the number of postings.
func (a *RootAccumulator) Count() int { return a.n }

// AppendTo appends the wire form to dst and returns the extended slice.
// A list of one skip block is its records. A longer list is
//
//	0x00 · uvarint(table bytes) · uvarint(record bytes) · table · records
//
// where the table holds one entry per block, in order: the block's last
// tid as a delta from the previous block's last tid (from 0 for the
// first block), its record count and its byte length. The leading 0x00
// cannot open a list of records, whose first record always starts a
// tree (a nonzero marker), so the two forms are told apart by one byte.
func (a *RootAccumulator) AppendTo(dst []byte) []byte {
	if len(a.table) == 0 {
		return append(dst, a.buf...)
	}
	var last [3 * binary.MaxVarintLen64]byte
	tail := appendSkipEntry(last[:0], a.lastTID-a.tableLast, a.blockN, len(a.buf)-a.blockOff)
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(a.table)+len(tail)))
	dst = binary.AppendUvarint(dst, uint64(len(a.buf)))
	dst = append(dst, a.table...)
	dst = append(dst, tail...)
	return append(dst, a.buf...)
}

// Bytes returns the wire form in a new slice.
func (a *RootAccumulator) Bytes() []byte { return a.AppendTo(nil) }

// RootIterator streams root-split postings in (tid, pre) order.
type RootIterator struct {
	buf []byte
	off int
	tid uint32
	// The current posting's structural numbers, pre and post packed in
	// one word (post<<32 | pre). Entry is inlined into loops that call it
	// right after Next and copy the record with an 8-byte move; were Next
	// to leave two freshly written 4-byte fields behind, that load would
	// straddle two pending stores and stall until they retire (a
	// store-forwarding miss, a tenth of a streamed evaluation's time when
	// measured). Words written whole are read back whole.
	prePost uint64
	level   uint32
	first   bool
	err     error

	// The skip table, read only by SkipTo: the current block spans
	// buf[bStart:bEnd], holds bCount records and ends with tree bLast;
	// skip holds the entries of the blocks after it. A list without a
	// table is one block spanning the whole blob.
	skip         []byte
	bStart, bEnd int
	bCount       int
	bLast        uint32
	tabled       bool
}

// NewRootIterator returns an iterator over the wire form buf. A corrupt
// skip-table header surfaces through Err before the first record.
func NewRootIterator(buf []byte) *RootIterator {
	it := &RootIterator{buf: buf, first: true}
	it.readTable()
	return it
}

// readTable parses the skip-table header of a list that has one and
// loads the first block: the table must fit in the blob and the record
// bytes it announces must be exactly the rest.
func (it *RootIterator) readTable() {
	buf := it.buf
	if len(buf) == 0 || buf[0] != 0 {
		return
	}
	tableLen, n1 := binary.Uvarint(buf[1:])
	if n1 <= 0 {
		it.err = fmt.Errorf("postings: corrupt root-split skip table header")
		return
	}
	recLen, n2 := binary.Uvarint(buf[1+n1:])
	start := 1 + n1 + n2
	if n2 <= 0 || tableLen == 0 || tableLen > uint64(len(buf)-start) || recLen != uint64(len(buf)-start)-tableLen {
		it.err = fmt.Errorf("postings: corrupt root-split skip table header")
		return
	}
	rec := start + int(tableLen)
	it.skip, it.off, it.tabled = buf[start:rec], rec, true
	it.bStart, it.bEnd = rec, rec // an empty block before the first
	it.nextSkipBlock()
}

// nextSkipBlock makes the block after the current one current. It
// reports false, with Err set, when the entry is corrupt or disagrees
// with the blob: a block holds at least one record of at least four
// bytes, lies inside the records, ends a later tree than the block
// before it, and the last block ends with the blob.
func (it *RootIterator) nextSkipBlock() bool {
	var v [3]uint64
	tab := it.skip
	for i := range v {
		x, n := binary.Uvarint(tab)
		if n <= 0 {
			it.err = fmt.Errorf("postings: corrupt root-split skip table entry")
			return false
		}
		v[i], tab = x, tab[n:]
	}
	delta, count, size := v[0], v[1], v[2]
	start := it.bEnd
	switch {
	case count == 0 || size > uint64(len(it.buf)-start) || count > size/4:
		it.err = fmt.Errorf("postings: skip block at offset %d: %d records in %d bytes do not fit the list", start, count, size)
	case (delta == 0 && it.bStart != it.bEnd) || delta > uint64(^uint32(0)-it.bLast):
		it.err = fmt.Errorf("postings: skip block at offset %d: last tid does not follow the previous block's", start)
	case len(tab) == 0 && start+int(size) != len(it.buf):
		it.err = fmt.Errorf("postings: skip table ends at offset %d, before the records do", start+int(size))
	}
	if it.err != nil {
		return false
	}
	it.skip = tab
	it.bStart, it.bEnd, it.bCount, it.bLast = start, start+int(size), int(count), it.bLast+uint32(delta)
	return true
}

// SkipTo moves the iterator over the records of trees below target a
// whole skip block at a time and returns how many records it passed. If
// the current block ends below target, SkipTo walks the rest of it
// tracking only the tid, then steps over every following block whose
// last tree is below target without reading its bytes, and stops at the
// start of the first block that reaches target. Otherwise it passes
// nothing: the records before target in the block holding it are left
// for Next and NextBlock, which deliver them as usual. A list without a
// skip table is one block and never skipped. Entry is not updated. The
// walk is NextBlock's run with the structural numbers dropped, the
// same-tid marker an arithmetic select rather than a branch; SkipTo's
// work is one walked block plus one table entry per block stepped over.
//
// Where a walked block disagrees with its entry — it ends inside a
// record or with another tree than its entry says, or the block SkipTo
// stops at opens with a same-tid marker — the list is corrupt: SkipTo
// stops there and Err reports it.
func (it *RootIterator) SkipTo(target uint32) int {
	if it.err != nil || !it.tabled {
		return 0
	}
	buf, off, tid := it.buf, it.off, it.tid
	for off >= it.bEnd && off < len(buf) {
		if off == it.bEnd && tid != it.bLast {
			return it.skipFail(0, fmt.Errorf("postings: skip block ending at offset %d ends with tid %d, its entry says %d", off, tid, it.bLast))
		}
		if !it.nextSkipBlock() {
			return 0
		}
	}
	if off >= len(buf) || it.bLast >= target {
		return 0
	}
	passed := 0
	if off > it.bStart {
		n, next, last, ok := walkBlock(buf[:it.bEnd], off, tid)
		if !ok {
			return it.skipFail(n, fmt.Errorf("postings: corrupt root-split record at offset %d (skip block ends at %d)", next, it.bEnd))
		}
		if last != it.bLast {
			return it.skipFail(n, fmt.Errorf("postings: skip block ending at offset %d ends with tid %d, its entry says %d", next, last, it.bLast))
		}
		passed, off, tid = n, next, last
		if off < len(buf) && !it.nextSkipBlock() {
			return passed
		}
	}
	for off < len(buf) && it.bLast < target {
		passed += it.bCount
		off, tid = it.bEnd, it.bLast
		if off < len(buf) && !it.nextSkipBlock() {
			return passed
		}
	}
	if off < len(buf) {
		// The block SkipTo stops at opens a tree, like every block.
		if m, n := binary.Uvarint(buf[off:it.bEnd]); n > 0 && m == 0 {
			return it.skipFail(passed, fmt.Errorf("postings: skip block at offset %d starts with a same-tid marker", off))
		}
	}
	it.off, it.tid, it.first = off, tid, false
	return passed
}

// skipFail records err as the iterator's error and returns passed, the
// records SkipTo stepped over before it.
func (it *RootIterator) skipFail(passed int, err error) int {
	it.err = err
	return passed
}

// walkBlock is SkipTo's walk over the rest of a block: starting at
// buf[off:], after a record of tree tid, it steps over every record up
// to the end of buf, the block's end, and returns how many it passed,
// the offset after them and the last one's tid. A record reaching past
// the end fails to decode: ok is false and next is that record's
// offset. Records of four one-byte varints cost one 32-bit load each.
func walkBlock(buf []byte, off int, tid uint32) (n, next int, last uint32, ok bool) {
	for {
		for len(buf)-off >= 4 {
			w := binary.LittleEndian.Uint32(buf[off:])
			if w&0x80808080 != 0 {
				break
			}
			d := w&0xff - 1
			d += d >> 31 // the same-tid marker 0 wraps to all ones, and back to 0
			tid, off, n = tid+d, off+4, n+1
		}
		if off >= len(buf) {
			return n, off, tid, true
		}
		v, end, ok := uvarint4(buf, off)
		if !ok {
			return n, off, tid, false
		}
		if v[0] != 0 {
			tid += uint32(v[0] - 1)
		}
		off, n = end, n+1
	}
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
	it.level = uint32(level)
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
		refs[i] = NodeRef{Pre: pre, Post: uint32(v[2]), Level: uint32(v[3])}
		i++
	}
	if it.off != off {
		last := refs[i-1]
		it.off, it.tid = off, tid
		it.prePost = uint64(last.Post)<<32 | uint64(last.Pre)
		it.level = last.Level
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
		refs[i] = NodeRef{Pre: pre, Post: w >> 16 & 0xff, Level: w >> 24}
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

// RootTabled reports whether buf, a root-split list's wire form, opens
// with a skip table: whether it holds more than one skip block.
func RootTabled(buf []byte) bool { return len(buf) > 0 && buf[0] == 0 }

// DecodeRootList decodes a whole root-split list of count records into
// fresh arrays, exactly as NextBlock writes them. It first holds every
// skip-table entry to the records it describes — the block opens a
// tree, ends on a record boundary at its entry's length, and holds its
// entry's record count ending with its entry's last tid — and then
// requires count records in non-decreasing tid order. A list that
// passes can fail no sequence of NextBlock and SkipTo calls, and a
// stream over it cannot find it unsorted, so the arrays answer every
// read exactly as the wire form would; any disagreement is an error.
func DecodeRootList(buf []byte, count int) ([]uint32, []NodeRef, error) {
	if err := NewRootIterator(buf).checkBlocks(); err != nil {
		return nil, nil, err
	}
	it := NewRootIterator(buf)
	tids, refs := make([]uint32, count), make([]NodeRef, count)
	n := it.NextBlock(tids, refs)
	if it.err != nil {
		return nil, nil, it.err
	}
	if n != count || it.off != len(buf) {
		return nil, nil, fmt.Errorf("postings: root-split list does not hold its %d counted records", count)
	}
	for i := 1; i < n; i++ {
		if tids[i] < tids[i-1] {
			return nil, nil, fmt.Errorf("postings: root-split list is not tid-sorted at record %d", i)
		}
	}
	return tids, refs, nil
}

// checkBlocks walks every skip block of a tabled list, from a fresh
// iterator, and reports the first one that disagrees with its entry:
// every check SkipTo makes, made on every block.
func (it *RootIterator) checkBlocks() error {
	if it.err != nil || !it.tabled {
		return it.err
	}
	var tid uint32
	for {
		if m, n := binary.Uvarint(it.buf[it.bStart:it.bEnd]); n <= 0 || m == 0 {
			return fmt.Errorf("postings: skip block at offset %d does not open a tree", it.bStart)
		}
		n, next, last, ok := walkBlock(it.buf[:it.bEnd], it.bStart, tid)
		if !ok || next != it.bEnd || n != it.bCount || last != it.bLast {
			return fmt.Errorf("postings: skip block at offset %d disagrees with its table entry", it.bStart)
		}
		if it.bEnd == len(it.buf) {
			return nil
		}
		tid = last
		if !it.nextSkipBlock() {
			return it.err
		}
	}
}

// Entry returns the current posting.
func (it *RootIterator) Entry() RootEntry {
	pp := it.prePost
	return RootEntry{TID: it.tid, NodeRef: NodeRef{Pre: uint32(pp), Post: uint32(pp >> 32), Level: it.level}}
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
// slots (canonical order; nodes[0] is the root). Each node's order
// varint is its Pre.
func (a *IntervalAccumulator) Add(tid uint32, nodes []NodeRef) {
	if a.n > 0 && tid < a.lastTID {
		panic("postings: interval occurrences out of order")
	}
	a.buf = binary.AppendUvarint(a.buf, uint64(tid-a.lastTID))
	a.buf = binary.AppendUvarint(a.buf, uint64(len(nodes)))
	for _, nd := range nodes {
		a.buf = binary.AppendUvarint(a.buf, uint64(nd.Pre))
		a.buf = binary.AppendUvarint(a.buf, uint64(nd.Post))
		a.buf = binary.AppendUvarint(a.buf, uint64(nd.Level))
		a.buf = binary.AppendUvarint(a.buf, uint64(nd.Pre))
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

// Next advances; false at end or on error. Each node's order varint is
// read and dropped: it repeats Pre.
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
		_, ok4 := it.uv()
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return false
		}
		it.nodes = append(it.nodes, NodeRef{Pre: uint32(pre), Post: uint32(post), Level: uint32(level)})
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
