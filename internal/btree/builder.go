package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/pager"
)

// Builder bulk-loads a tree from keys supplied in strictly increasing
// order. It fills one leaf at a time, writes it as soon as the next
// entry would not fit, and records the leaf's first key and page id as
// its fence; Finish writes the fences as one extent. This is the natural
// loading path for the Subtree Index, whose keys come out of the
// extraction phase already aggregated and sortable.
type Builder struct {
	pf      *pager.File
	leaf    []byte // the leaf being filled: header, then entries
	leafN   int    // entries in leaf
	leaves  uint32 // leaves written
	fences  []byte // the fence array; the open leaf's fence still lacks its page id
	lastKey []byte
	nkeys   uint64
	done    bool
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
	leaf := make([]byte, leafHeader, pageSize)
	leaf[0] = pageLeaf
	return &Builder{pf: pf, leaf: leaf}, nil
}

// MaxKeyLen returns the largest key the builder accepts for its page
// size: half a page less room for an entry's flag, lengths and extent
// page id, so that an entry whose value moved to an extent still fits a
// leaf beside others, and a fence stays small.
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
	// A leaf closes when the entry would overflow its page, or when its
	// uint16 entry count is full.
	if b.leafN > 0 && (len(b.leaf)+len(entry) > b.pf.PageSize() || b.leafN == math.MaxUint16) {
		if err := b.writeLeaf(); err != nil {
			return err
		}
	}
	if len(b.leaf)+len(entry) > b.pf.PageSize() {
		return fmt.Errorf("btree: entry for key %q does not fit a page even alone", key)
	}
	if b.leafN == 0 {
		b.fences = binary.AppendUvarint(b.fences, uint64(len(key)))
		b.fences = append(b.fences, key...)
	}
	b.leaf = append(b.leaf, entry...)
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
// first page's id (0 for an empty value, which takes no page).
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

// writeLeaf writes the filled leaf to a fresh page, completes its fence
// with that page's id and empties the leaf for the next key.
func (b *Builder) writeLeaf() error {
	id, err := b.pf.Alloc()
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(b.leaf[1:], uint16(b.leafN))
	page := b.leaf[:b.pf.PageSize()]
	clear(page[len(b.leaf):])
	if err := b.pf.Write(id, page); err != nil {
		return err
	}
	b.fences = binary.LittleEndian.AppendUint32(b.fences, id)
	b.leaf, b.leafN = b.leaf[:leafHeader], 0
	b.leaves++
	return nil
}

// Finish writes the last leaf, the fence array and the meta page, then
// closes the file, which syncs it.
func (b *Builder) Finish() error {
	if b.done {
		return fmt.Errorf("btree: Finish called twice")
	}
	b.done = true
	err := b.finish()
	if cerr := b.pf.Close(); err == nil {
		err = cerr
	}
	return err
}

func (b *Builder) finish() error {
	if b.leafN > 0 {
		if err := b.writeLeaf(); err != nil {
			return err
		}
	}
	first, err := b.writeExtent(b.fences)
	if err != nil {
		return err
	}
	meta := make([]byte, b.pf.PageSize())
	meta[0] = pageMeta
	binary.LittleEndian.PutUint64(meta[1:], b.nkeys)
	binary.LittleEndian.PutUint32(meta[9:], b.leaves)
	binary.LittleEndian.PutUint32(meta[13:], first)
	binary.LittleEndian.PutUint64(meta[17:], uint64(len(b.fences)))
	return b.pf.Write(1, meta)
}

func uvlen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
