package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// Builder bulk-loads a B+Tree from keys supplied in strictly increasing
// order, writing leaves left to right and stitching internal levels
// bottom-up. This is the natural loading path for the Subtree Index,
// whose keys come out of the extraction phase already aggregated and
// sortable.
type Builder struct {
	pf *pager.File

	// Current leaf under construction.
	leafBuf  []byte
	leafN    int
	leafID   uint32
	haveLeaf bool

	// A completed leaf waiting for its next-pointer (assigned when the
	// following leaf is allocated).
	pending    []byte
	pendingID  uint32
	pendingKey []byte // first key of the pending leaf

	levels  []*levelBuilder
	lastKey []byte
	nkeys   uint64
	done    bool
}

type levelBuilder struct {
	buf      []byte
	n        int    // number of separator entries (children - 1)
	firstSep []byte // smallest key in this page's subtree (routes to it)
}

// NewBuilder creates a page file at path and returns a Builder over it.
func NewBuilder(path string, pageSize int) (*Builder, error) {
	pf, err := pager.Create(path, pageSize)
	if err != nil {
		return nil, err
	}
	// Reserve page 1 for the meta page.
	metaID, err := pf.Alloc()
	if err != nil {
		pf.Close()
		return nil, err
	}
	if metaID != 1 {
		pf.Close()
		return nil, fmt.Errorf("btree: meta page allocated at %d", metaID)
	}
	return &Builder{pf: pf}, nil
}

// MaxKeyLen returns the largest key the builder accepts for its page
// size; a routing entry (and an extent leaf entry) must fit a page
// with room to spare so internal fanout stays at least two.
func (b *Builder) MaxKeyLen() int { return b.pf.PageSize()/2 - 16 }

// Add appends a key/value pair. Keys must be strictly increasing.
func (b *Builder) Add(key, value []byte) error {
	if b.done {
		return fmt.Errorf("btree: Add after Finish")
	}
	if len(key) == 0 || len(key) > b.MaxKeyLen() {
		return fmt.Errorf("btree: key length %d out of range [1, %d]", len(key), b.MaxKeyLen())
	}
	if b.lastKey != nil && bytes.Compare(key, b.lastKey) <= 0 {
		return fmt.Errorf("btree: keys out of order: %q after %q", key, b.lastKey)
	}
	b.lastKey = append(b.lastKey[:0], key...)

	entry, err := b.encodeEntry(key, value)
	if err != nil {
		return err
	}
	if !b.haveLeaf {
		if err := b.startLeaf(key); err != nil {
			return err
		}
	} else if b.leafN > 0 && len(b.leafBuf)+len(entry) > b.pf.PageSize() {
		if err := b.completeLeaf(); err != nil {
			return err
		}
		if err := b.startLeaf(key); err != nil {
			return err
		}
	}
	if len(b.leafBuf)+len(entry) > b.pf.PageSize() {
		return fmt.Errorf("btree: entry for key %q does not fit a page even alone", key)
	}
	b.leafBuf = append(b.leafBuf, entry...)
	b.leafN++
	b.nkeys++
	return nil
}

// encodeEntry renders one leaf entry, writing the value to an extent
// when it cannot share a page with its key.
func (b *Builder) encodeEntry(key, value []byte) ([]byte, error) {
	inlineSize := 1 + uvlen(uint64(len(key))) + len(key) + uvlen(uint64(len(value))) + len(value)
	// Inline if the whole entry fits in half a page; large values go to
	// extents so leaves keep fanout.
	if inlineSize <= b.pf.PageSize()/2 {
		e := make([]byte, 0, inlineSize)
		e = append(e, flagInline)
		e = binary.AppendUvarint(e, uint64(len(key)))
		e = append(e, key...)
		e = binary.AppendUvarint(e, uint64(len(value)))
		return append(e, value...), nil
	}
	first, err := b.writeExtent(value)
	if err != nil {
		return nil, err
	}
	e := make([]byte, 0, 1+uvlen(uint64(len(key)))+len(key)+uvlen(uint64(len(value)))+4)
	e = append(e, flagExtent)
	e = binary.AppendUvarint(e, uint64(len(key)))
	e = append(e, key...)
	e = binary.AppendUvarint(e, uint64(len(value)))
	return binary.LittleEndian.AppendUint32(e, first), nil
}

// writeExtent stores value across ⌈len/pageSize⌉ freshly allocated —
// hence consecutive — pages, zero-padding the last, and returns the
// first page's id.
func (b *Builder) writeExtent(value []byte) (uint32, error) {
	ps := b.pf.PageSize()
	var first uint32
	for lo := 0; lo < len(value); lo += ps {
		id, err := b.pf.Alloc()
		if err != nil {
			return 0, err
		}
		if lo == 0 {
			first = id
		}
		page := value[lo:min(lo+ps, len(value))]
		if len(page) < ps {
			padded := make([]byte, ps)
			copy(padded, page)
			page = padded
		}
		if err := b.pf.Write(id, page); err != nil {
			return 0, err
		}
	}
	return first, nil
}

func (b *Builder) startLeaf(firstKey []byte) error {
	id, err := b.pf.Alloc()
	if err != nil {
		return err
	}
	// The previously completed leaf can now learn its next pointer.
	if b.pending != nil {
		binary.LittleEndian.PutUint32(b.pending[3:], id)
		if err := b.flushPending(); err != nil {
			return err
		}
	}
	b.leafID = id
	b.leafBuf = make([]byte, leafHeader, b.pf.PageSize())
	b.leafBuf[0] = pageLeaf
	b.leafN = 0
	b.haveLeaf = true
	b.pendingKey = append([]byte(nil), firstKey...)
	return nil
}

// completeLeaf finalizes the current leaf into the pending slot.
func (b *Builder) completeLeaf() error {
	binary.LittleEndian.PutUint16(b.leafBuf[1:], uint16(b.leafN))
	page := make([]byte, b.pf.PageSize())
	copy(page, b.leafBuf)
	b.pending = page
	b.pendingID = b.leafID
	b.haveLeaf = false
	return b.pushLevel(0, b.pendingKey, b.leafID)
}

func (b *Builder) flushPending() error {
	err := b.pf.Write(b.pendingID, b.pending)
	b.pending = nil
	return err
}

// pushLevel records (sepKey, child) at internal level l, flushing pages
// as they fill.
func (b *Builder) pushLevel(l int, sepKey []byte, child uint32) error {
	for len(b.levels) <= l {
		b.levels = append(b.levels, &levelBuilder{})
	}
	lv := b.levels[l]
	var tmp [binary.MaxVarintLen64]byte
	entry := make([]byte, 0, 16+len(sepKey))
	if lv.buf == nil {
		// First child of a fresh page becomes the leftmost pointer; the
		// separator that routes to this page (its subtree minimum) is
		// remembered for the level above.
		lv.buf = make([]byte, internalHeader, b.pf.PageSize())
		lv.buf[0] = pageInternal
		binary.LittleEndian.PutUint32(lv.buf[3:], child)
		lv.n = 0
		lv.firstSep = append(lv.firstSep[:0], sepKey...)
		return nil
	}
	n := binary.PutUvarint(tmp[:], uint64(len(sepKey)))
	entry = append(entry, tmp[:n]...)
	entry = append(entry, sepKey...)
	var pid [4]byte
	binary.LittleEndian.PutUint32(pid[:], child)
	entry = append(entry, pid[:]...)
	if len(lv.buf)+len(entry) > b.pf.PageSize() {
		if err := b.flushLevel(l); err != nil {
			return err
		}
		return b.pushLevel(l, sepKey, child)
	}
	lv.buf = append(lv.buf, entry...)
	lv.n++
	return nil
}

// flushLevel writes out the internal page at level l and registers it
// one level up.
func (b *Builder) flushLevel(l int) error {
	lv := b.levels[l]
	binary.LittleEndian.PutUint16(lv.buf[1:], uint16(lv.n))
	id, err := b.pf.Alloc()
	if err != nil {
		return err
	}
	page := make([]byte, b.pf.PageSize())
	copy(page, lv.buf)
	if err := b.pf.Write(id, page); err != nil {
		return err
	}
	sep := append([]byte(nil), lv.firstSep...)
	lv.buf = nil
	lv.n = 0
	return b.pushLevel(l+1, sep, id)
}

// Finish completes the tree, writes the meta page and closes the file.
func (b *Builder) Finish() error {
	if b.done {
		return fmt.Errorf("btree: Finish called twice")
	}
	b.done = true
	defer b.pf.Close()

	var root uint32
	if b.nkeys == 0 {
		// Empty tree: a single empty leaf as root.
		id, err := b.pf.Alloc()
		if err != nil {
			return err
		}
		page := make([]byte, b.pf.PageSize())
		page[0] = pageLeaf
		if err := b.pf.Write(id, page); err != nil {
			return err
		}
		root = id
	} else {
		if b.haveLeaf {
			if err := b.completeLeaf(); err != nil {
				return err
			}
		}
		if b.pending != nil {
			binary.LittleEndian.PutUint32(b.pending[3:], 0) // last leaf
			if err := b.flushPending(); err != nil {
				return err
			}
		}
		// Cascade-flush internal levels bottom-up. The loop bound grows
		// as flushes push entries into higher levels. A top level that
		// holds a single child and no separators collapses: that child
		// is the root.
		for l := 0; l < len(b.levels); l++ {
			lv := b.levels[l]
			if lv.buf == nil {
				continue
			}
			if lv.n == 0 && l == len(b.levels)-1 {
				root = binary.LittleEndian.Uint32(lv.buf[3:])
				lv.buf = nil
				break
			}
			if err := b.flushLevel(l); err != nil {
				return err
			}
		}
		if root == 0 {
			return fmt.Errorf("btree: internal error: no root after cascade")
		}
	}
	height, err := b.measureHeight(root)
	if err != nil {
		return err
	}

	meta := make([]byte, b.pf.PageSize())
	meta[0] = pageMeta
	binary.LittleEndian.PutUint32(meta[1:], root)
	binary.LittleEndian.PutUint64(meta[5:], b.nkeys)
	binary.LittleEndian.PutUint32(meta[13:], height)
	if err := b.pf.Write(1, meta); err != nil {
		return err
	}
	return b.pf.Sync()
}

// measureHeight walks from the root to a leaf counting levels; 1 means
// the root itself is a leaf.
func (b *Builder) measureHeight(root uint32) (uint32, error) {
	buf := make([]byte, b.pf.PageSize())
	h := uint32(1)
	id := root
	for {
		if err := b.pf.Read(id, buf); err != nil {
			return 0, err
		}
		if buf[0] == pageLeaf {
			return h, nil
		}
		if buf[0] != pageInternal {
			return 0, fmt.Errorf("btree: unexpected page type %q measuring height", buf[0])
		}
		id = binary.LittleEndian.Uint32(buf[3:])
		h++
	}
}

func uvlen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
