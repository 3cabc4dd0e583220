// Package btree implements the disk-based B+Tree the Subtree Index is
// stored in (paper §6.1): variable-length keys mapping to posting-list
// blobs, values too long to share a leaf stored as one contiguous
// page-aligned extent each. Indexes are built once by a bulk loader
// from a sorted key stream and then opened read-only, so the tree has
// one routing level: the leaves are page-sized sorted buckets, and a
// fence array — each leaf's first key and page id — is read once at
// open and binary-searched in memory. A lookup reads one leaf page; a
// range scan reads the leaves in fence order. No user-level page cache
// is layered over the pager (the paper relies on OS page buffering, and
// so do we): Open reads with pread, and OpenWith can select the
// zero-copy mmap backend for serving workloads.
//
// Reads go through the pager's borrow contract (pager.ReadPage): a
// lookup holds one leaf view and releases it before returning, so it
// allocates nothing on the mmap backend. There — where page views stay
// valid until Close — Get returns inline values as subslices of the
// page itself; on the pooled pread path it copies, because the scratch
// page is reused after release. An extent value is borrowed from the
// mapping when the file is mapped (pager.ReadExtent: no copy, no
// allocation) and read into a fresh buffer with one positioned read
// otherwise. Either way the returned value is read-only and valid until
// the Tree is closed.
//
// An opened Tree is safe for concurrent use: Get and Iterator keep all
// mutable state (page borrows, cursors) per call or per Iterator, the
// fences are immutable after open, and the shared pager's read path is
// itself thread-safe, so any number of goroutines may search and scan
// one Tree at once.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"repro/internal/pager"
)

// Page type tags, first byte of every leaf and of the meta page. Extent
// pages carry no tag: they hold nothing but value bytes or fences.
const (
	pageLeaf       = 'L'
	pageMeta       = 'F'
	pageMetaLevels = 'M' // the meta page of an older format with internal pages, refused
)

// Leaf entry flags, first byte of every leaf entry.
const (
	flagInline = 0
	flagChain  = 1 // a linked overflow chain: an older format, refused
	flagExtent = 2
)

// leaf page layout:
//
//	[0] = 'L'
//	[1:3] = number of entries (uint16)
//	entries: flag byte (flagInline or flagExtent),
//	         key length uvarint, key bytes,
//	         inline: value length uvarint, value bytes
//	         extent: value length uvarint, first extent page (uint32)
//
// extent layout: the value's bytes from the start of its first page on,
// across ⌈length/pageSize⌉ consecutive pages, the last zero-padded; no
// per-page header.
//
// fence array: one extent holding, for every leaf in key order, the
// leaf's first key (length uvarint, key bytes) and its page id (uint32).
//
// meta page layout (page 1):
//
//	[0] = 'F'
//	[1:9] = number of keys (uint64)
//	[9:13] = number of leaves (uint32)
//	[13:17] = the fence array's first page (uint32)
//	[17:25] = the fence array's length in bytes (uint64)
const leafHeader = 3

// Stats describes a built tree.
type Stats struct {
	Keys      uint64 // key/value pairs stored
	Height    uint32 // pages a lookup reads before any extent: always 1, the leaf
	Pages     uint32 // total allocated pages including meta
	SizeBytes int64  // index file size in bytes
}

// Options configure how a tree is opened; the zero value reproduces
// Open (pread).
type Options struct {
	// Mmap requests the pager's memory-mapped backend, falling back to
	// pread when mapping is unavailable (see pager.OpenOptions).
	Mmap bool
}

// Tree is a read-only view of a built B+Tree.
type Tree struct {
	pf     *pager.File
	keys   uint64
	fences []fence // one per leaf, in key order
	stable bool    // page views outlive release: Get may return subslices
}

// fence routes the keys from its own up to the next fence's to the leaf
// at page.
type fence struct {
	key  []byte
	page uint32
}

// Open opens the B+Tree stored in the page file at path with the pread
// backend.
func Open(path string) (*Tree, error) {
	return OpenWith(path, Options{})
}

// OpenWith opens the B+Tree stored in the page file at path with
// explicit backend options.
func OpenWith(path string, opts Options) (*Tree, error) {
	pf, err := pager.OpenWith(path, pager.OpenOptions{Mmap: opts.Mmap})
	if err != nil {
		return nil, err
	}
	// The builder writes every page it allocates, so a file shorter than
	// its header's page count is cut or lying — and that count bounds
	// where an extent may claim to lie (readExtent).
	st, err := os.Stat(path)
	if err == nil && st.Size() < pf.SizeBytes() {
		err = fmt.Errorf("btree: %s holds %d bytes, not the %d pages its header claims", path, st.Size(), pf.NumPages())
	}
	var t *Tree
	if err == nil {
		t, err = readMeta(pf)
	}
	if err != nil {
		pf.Close()
		return nil, err
	}
	return t, nil
}

// readMeta reads the meta page and the fence array it points to.
func readMeta(pf *pager.File) (*Tree, error) {
	page, release, err := pf.ReadPage(1)
	if err != nil {
		return nil, fmt.Errorf("btree: reading meta page: %w", err)
	}
	tag := page[0]
	keys := binary.LittleEndian.Uint64(page[1:])
	leaves := binary.LittleEndian.Uint32(page[9:])
	first := binary.LittleEndian.Uint32(page[13:])
	size := binary.LittleEndian.Uint64(page[17:])
	release()
	switch {
	case tag == pageMetaLevels:
		return nil, fmt.Errorf("btree: the file routes through internal pages, a format this version no longer reads: rebuild the index")
	case tag != pageMeta:
		return nil, fmt.Errorf("btree: page 1 is not a meta page")
	case (keys == 0) != (leaves == 0) || uint64(leaves) > keys:
		return nil, fmt.Errorf("btree: meta page claims %d keys in %d leaves", keys, leaves)
	}
	t := &Tree{pf: pf, keys: keys, stable: pf.Stable()}
	var raw []byte
	if size > 0 {
		if raw, err = t.readExtent(first, size); err != nil {
			return nil, err
		}
	}
	// A mapped extent dies with the mapping, and a lookup that races
	// Close must fail, not fault: the fences live on the heap.
	if t.stable {
		raw = bytes.Clone(raw)
	}
	t.fences, err = parseFences(raw, leaves, pf.NumPages())
	return t, err
}

// parseFences decodes a fence array that must hold exactly n fences,
// their keys strictly increasing and their pages past the meta page and
// within the file's npages. A fence takes at least five bytes, which
// bounds n before anything is allocated for it.
func parseFences(raw []byte, n, npages uint32) ([]fence, error) {
	if uint64(n) > uint64(len(raw))/5 {
		return nil, fmt.Errorf("btree: a fence array of %d bytes cannot hold the %d leaves the meta page claims", len(raw), n)
	}
	fences := make([]fence, n)
	for i := range fences {
		klen, m := binary.Uvarint(raw)
		if m <= 0 || klen > uint64(len(raw)-m) || len(raw)-m-int(klen) < 4 {
			return nil, fmt.Errorf("btree: fence %d runs past the fence array", i)
		}
		f := fence{key: raw[m : m+int(klen)], page: binary.LittleEndian.Uint32(raw[m+int(klen):])}
		raw = raw[m+int(klen)+4:]
		if f.page < 2 || f.page >= npages {
			return nil, fmt.Errorf("btree: fence %d names page %d, outside the file's pages [2, %d)", i, f.page, npages)
		}
		if i > 0 && bytes.Compare(fences[i-1].key, f.key) >= 0 {
			return nil, fmt.Errorf("btree: fence %d does not sort after fence %d", i, i-1)
		}
		fences[i] = f
	}
	if len(raw) > 0 {
		return nil, fmt.Errorf("btree: %d bytes follow the %d fences the meta page claims", len(raw), n)
	}
	return fences, nil
}

// Close releases the underlying file (and its mapping, when mapped).
func (t *Tree) Close() error { return t.pf.Close() }

// Mapped reports whether reads are served from a memory mapping.
func (t *Tree) Mapped() bool { return t.stable }

// Stats returns size statistics for the tree.
func (t *Tree) Stats() Stats {
	return Stats{Keys: t.keys, Height: 1, Pages: t.pf.NumPages(), SizeBytes: t.pf.SizeBytes()}
}

// Get returns the value stored under key, or found=false. The returned
// slice is read-only and valid until the Tree is closed: on the mmap
// backend every value is a zero-copy subslice of the mapping, and on
// the pread backend it is copied.
func (t *Tree) Get(key []byte) (value []byte, found bool, err error) {
	i := t.leafFor(key)
	if i < 0 {
		return nil, false, nil
	}
	page, release, err := t.readLeaf(i)
	if err != nil {
		return nil, false, err
	}
	value, found, err = t.searchLeaf(page, key)
	release()
	return value, found, err
}

// leafEntry is one decoded leaf entry: an inline value is a view into
// the page; an extent value is its first page and length.
type leafEntry struct {
	key, val []byte
	extent   bool
	first    uint32
	vlen     uint64
}

// seek decodes the entries of a leaf page into e, from entry i at byte
// off on, and stops at the first whose key is >= key — entry i itself
// for a nil key. It returns that entry's index and the offset after it;
// found is false when no entry of the page qualifies. Every length in a
// file is outside input (a follower serves files it pulled over the
// network), so an entry that runs past the page is an error, never an
// out-of-range slice, and an entry of an older or unknown format is an
// error, never a misread.
func (e *leafEntry) seek(page []byte, i, off int, key []byte) (int, int, bool, error) {
	n := int(binary.LittleEndian.Uint16(page[1:]))
	for ; i < n && off < len(page); i++ {
		switch page[off] {
		case flagInline, flagExtent:
		case flagChain:
			return i, off, false, fmt.Errorf("btree: leaf entry %d is an overflow chain, a format this version no longer reads: rebuild the index", i)
		default:
			return i, off, false, fmt.Errorf("btree: leaf entry %d has unknown flag %d", i, page[off])
		}
		extent := page[off] == flagExtent
		klen, m := binary.Uvarint(page[off+1:])
		if off += 1 + m; m <= 0 || klen > uint64(len(page)-off) {
			break
		}
		k := page[off : off+int(klen)]
		off += int(klen)
		vlen, m := binary.Uvarint(page[off:])
		if m <= 0 {
			break
		}
		off += m
		size := vlen
		if extent {
			size = 4 // the extent's first page
		}
		if size > uint64(len(page)-off) {
			break
		}
		off += int(size)
		// Only the entry seek stops at is stored: the ones it passes
		// cost no writes.
		if key == nil || bytes.Compare(k, key) >= 0 {
			*e = leafEntry{key: k, extent: extent, vlen: vlen}
			if v := page[off-int(size) : off : off]; extent {
				e.first = binary.LittleEndian.Uint32(v)
			} else {
				e.val = v
			}
			return i, off, true, nil
		}
	}
	if i < n {
		return i, off, false, fmt.Errorf("btree: leaf entry %d runs past its page", i)
	}
	return i, off, false, nil
}

// searchLeaf looks key up in a leaf page. Inline values are returned as
// page subslices when the backend is stable (the caller still holds
// the page borrow here; stability makes the subslice outlive release),
// and copied otherwise.
func (t *Tree) searchLeaf(page []byte, key []byte) ([]byte, bool, error) {
	var e leafEntry
	_, _, found, err := e.seek(page, 0, leafHeader, key)
	switch {
	case err != nil || !found || !bytes.Equal(e.key, key):
		return nil, false, err
	case e.extent:
		v, err := t.readExtent(e.first, e.vlen)
		return v, err == nil, err
	case t.stable:
		return e.val, true, nil
	default:
		return append([]byte(nil), e.val...), true, nil
	}
}

// readExtent returns the vlen-byte value stored from page first on,
// borrowed from the mapping or read fresh (pager.ReadExtent). An extent
// must lie past the pager header and the meta page and end within the
// file, which bounds vlen before anything is allocated for it.
func (t *Tree) readExtent(first uint32, vlen uint64) ([]byte, error) {
	ps := uint64(t.pf.PageSize())
	pages := vlen / ps
	if vlen%ps != 0 {
		pages++
	}
	if first < 2 || uint64(first)+pages > uint64(t.pf.NumPages()) {
		return nil, fmt.Errorf("btree: extent of %d bytes from page %d lies outside the file's %d pages", vlen, first, t.pf.NumPages())
	}
	return t.pf.ReadExtent(first, int(vlen))
}

// leafFor returns the index of the fence whose leaf may hold key: the
// last fence at or below it, or -1 when key sorts before every fence (a
// nil key sorts before every stored key).
func (t *Tree) leafFor(key []byte) int {
	return sort.Search(len(t.fences), func(i int) bool { return bytes.Compare(t.fences[i].key, key) > 0 }) - 1
}

// readLeaf borrows the leaf that fence i names. A fence naming any other
// page — an extent, the fence array itself — is a corrupt file.
func (t *Tree) readLeaf(i int) ([]byte, func(), error) {
	id := t.fences[i].page
	page, release, err := t.pf.ReadPage(id)
	if err != nil {
		return nil, nil, err
	}
	if page[0] != pageLeaf {
		b := page[0]
		release()
		return nil, nil, fmt.Errorf("btree: fence %d names page %d of type %q, not a leaf", i, id, b)
	}
	return page, release, nil
}
