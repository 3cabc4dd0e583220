// Package btree implements the native disk-based B+Tree the Subtree
// Index is stored in (paper §6.1): variable-length keys mapping to
// posting-list blobs, values too long to share a leaf stored as one
// contiguous page-aligned extent each, and leaves chained for range
// scans. Indexes are built once by a bulk loader from a sorted key
// stream and then opened read-only; by
// default no user-level page cache is layered over the pager (the paper
// relies on OS page buffering, and so do we), while OpenCached opts a
// tree into the pager's sharded LRU page cache and OpenWith can select
// the zero-copy mmap backend for serving workloads.
//
// Reads go through the pager's borrow contract (pager.ReadPage):
// descents hold one page view at a time and release it before moving
// down, so a lookup allocates nothing on the mmap and cached backends.
// On those backends — where page views stay valid until Close — Get
// returns inline values as subslices of the page itself; on the pooled
// pread path it copies, because the scratch page is reused after
// release. An extent value is borrowed from the mapping when the file
// is mapped (pager.ReadExtent: no copy, no allocation) and read into a
// fresh buffer with one positioned read otherwise. Either way the
// returned value is read-only and valid until the Tree is closed.
//
// An opened Tree is safe for concurrent use: Get and Iterator keep all
// mutable state (page borrows, cursors) per call or per Iterator, and
// the shared pager's read path is itself thread-safe, so any number of
// goroutines may search and scan one Tree at once.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/pager"
)

// Page type tags, first byte of every tree page. Extent pages carry no
// tag: they hold nothing but value bytes.
const (
	pageLeaf     = 'L'
	pageInternal = 'I'
	pageMeta     = 'M'
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
//	[3:7] = next leaf page id (0 = last leaf)
//	entries: flag byte (flagInline or flagExtent),
//	         key length uvarint, key bytes,
//	         inline: value length uvarint, value bytes
//	         extent: value length uvarint, first extent page (uint32)
//
// extent layout: the value's bytes from the start of its first page on,
// across ⌈length/pageSize⌉ consecutive pages, the last zero-padded; no
// per-page header.
//
// internal page layout:
//
//	[0] = 'I'
//	[1:3] = number of separator keys (uint16)
//	[3:7] = leftmost child page id
//	entries: key length uvarint, key bytes, child page id (uint32);
//	         entry i routes keys >= key_i (and < key_{i+1}) to child_i
//
// meta page layout (page 1):
//
//	[0] = 'M'
//	[1:5] = root page id
//	[5:13] = number of keys (uint64)
//	[13:17] = tree height (uint32, 1 = root is a leaf)
const (
	leafHeader     = 7
	internalHeader = 7
)

// Stats describes a built tree.
type Stats struct {
	Keys      uint64 // key/value pairs stored
	Height    uint32 // levels from root to leaves (1 = root is a leaf)
	Pages     uint32 // total allocated pages including meta
	SizeBytes int64  // index file size in bytes
}

// Options configure how a tree is opened; the zero value reproduces
// Open (pread, no cache).
type Options struct {
	// CacheBytes is the pager page-cache budget; 0 or less disables it,
	// and a positive budget selects the cached backend over Mmap.
	CacheBytes int64
	// Mmap requests the pager's memory-mapped backend when no cache is
	// requested, falling back to pread when mapping is unavailable (see
	// pager.OpenOptions).
	Mmap bool
}

// Tree is a read-only view of a built B+Tree.
type Tree struct {
	pf     *pager.File
	root   uint32
	height uint32
	keys   uint64
	stable bool // page views outlive release: Get may return subslices
}

// Open opens the B+Tree stored in the page file at path with no
// user-level page cache.
func Open(path string) (*Tree, error) {
	return OpenWith(path, Options{})
}

// OpenCached opens the B+Tree with a pager page cache of roughly
// cacheBytes; 0 or less is equivalent to Open.
func OpenCached(path string, cacheBytes int64) (*Tree, error) {
	return OpenWith(path, Options{CacheBytes: cacheBytes})
}

// OpenWith opens the B+Tree stored in the page file at path with
// explicit backend options.
func OpenWith(path string, opts Options) (*Tree, error) {
	pf, err := pager.OpenWith(path, pager.OpenOptions{CacheBytes: opts.CacheBytes, Mmap: opts.Mmap})
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
	if err != nil {
		pf.Close()
		return nil, err
	}
	return fromPager(pf)
}

func fromPager(pf *pager.File) (*Tree, error) {
	page, release, err := pf.ReadPage(1)
	if err != nil {
		pf.Close()
		return nil, fmt.Errorf("btree: reading meta page: %w", err)
	}
	if page[0] != pageMeta {
		release()
		pf.Close()
		return nil, fmt.Errorf("btree: page 1 is not a meta page")
	}
	t := &Tree{
		pf:     pf,
		root:   binary.LittleEndian.Uint32(page[1:]),
		keys:   binary.LittleEndian.Uint64(page[5:]),
		height: binary.LittleEndian.Uint32(page[13:]),
		stable: pf.Stable(),
	}
	release()
	// Every level of a tree is at least one page, so a larger height is
	// corrupt — and would let a cyclic descent run for billions of steps.
	if t.height == 0 || t.height > pf.NumPages() {
		pf.Close()
		return nil, fmt.Errorf("btree: meta page claims height %d in a file of %d pages", t.height, pf.NumPages())
	}
	return t, nil
}

// Close releases the underlying file (and its mapping, when mapped).
func (t *Tree) Close() error { return t.pf.Close() }

// CacheStats reports the pager's page-cache counters (zero when the
// tree was opened without a cache).
func (t *Tree) CacheStats() pager.CacheStats { return t.pf.CacheStats() }

// Mapped reports whether reads are served from a memory mapping.
func (t *Tree) Mapped() bool { return t.pf.Mapped() }

// Stats returns size statistics for the tree.
func (t *Tree) Stats() Stats {
	return Stats{Keys: t.keys, Height: t.height, Pages: t.pf.NumPages(), SizeBytes: t.pf.SizeBytes()}
}

// Get returns the value stored under key, or found=false. The returned
// slice is read-only and valid until the Tree is closed: on the mmap
// backend every value is a zero-copy subslice of the mapping, on the
// cached backend an inline value is a subslice of the cached page, and
// elsewhere the value is copied.
func (t *Tree) Get(key []byte) (value []byte, found bool, err error) {
	if t.keys == 0 {
		return nil, false, nil
	}
	page, release, err := t.descend(key)
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

// routeInternal returns the child page for key, checking each entry
// against the page as seek does.
func routeInternal(page []byte, key []byte) (uint32, error) {
	n := int(binary.LittleEndian.Uint16(page[1:]))
	child := binary.LittleEndian.Uint32(page[3:])
	off := internalHeader
	for i := 0; i < n; i++ {
		klen, m := binary.Uvarint(page[off:])
		if off += m; m <= 0 || klen > uint64(len(page)-off) || len(page)-off-int(klen) < 4 {
			return 0, fmt.Errorf("btree: internal entry %d runs past its page", i)
		}
		k := page[off : off+int(klen)]
		off += int(klen)
		if bytes.Compare(key, k) < 0 {
			break
		}
		child = binary.LittleEndian.Uint32(page[off:])
		off += 4
	}
	return child, nil
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

// descend walks internal pages from the root toward key (the leftmost
// path for a nil key, which sorts before every stored key) and returns
// the leaf it reaches, borrowed. An internal page at the meta page's
// height — where only leaves may be — is a corrupt or cyclic tree.
func (t *Tree) descend(key []byte) ([]byte, func(), error) {
	id := t.root
	for depth := uint32(1); ; depth++ {
		page, release, err := t.pf.ReadPage(id)
		if err != nil {
			return nil, nil, err
		}
		if page[0] == pageLeaf {
			return page, release, nil
		}
		b := page[0]
		if b == pageInternal && depth < t.height {
			id, err = routeInternal(page, key)
		} else if b == pageInternal {
			err = fmt.Errorf("btree: internal page %d at depth %d of a tree of height %d", id, depth, t.height)
		} else {
			err = fmt.Errorf("btree: unexpected page type %q at %d", b, id)
		}
		release()
		if err != nil {
			return nil, nil, err
		}
	}
}
