// Package pager provides fixed-size page IO over a file, the storage
// substrate of the disk-based B+Tree.
//
// Matching the paper's setup, the default configuration layers no
// user-level page cache on top: reads go through the operating system's
// page buffering (§6.1). OpenCached adds an optional sharded LRU page
// cache for serving workloads that want hot pages pinned in process
// memory, and OpenWith with Mmap serves reads as subslices of a
// read-only memory mapping of the whole file — no copies at all.
//
// # Read path and the borrow contract
//
// ReadPage(id) returns a read-only view of one page plus a release
// function. The view is valid until release is called; callers must
// not write through it or retain it past release. Backends differ in
// how far past release a view happens to stay alive:
//
//   - mmap: the view is a subslice of the mapping, release is a no-op,
//     and the bytes stay valid until Close unmaps the file;
//   - cached: the view is the cache entry itself (no copy — hit or
//     miss), release is a no-op, and the garbage collector keeps even
//     an evicted entry alive while anything references it;
//   - uncached pread: the view is a pooled scratch buffer that release
//     returns for reuse, so the bytes are valid ONLY until release.
//
// Stable() reports which of the two regimes a file is in, letting
// callers (the B+Tree) return zero-copy values when views outlive
// release and copy only on the unstable pooled path. Read(id, buf)
// remains the copying convenience wrapper.
//
// ReadExtent(first, n) reads a byte range that starts at a page and
// spans consecutive pages (the B+Tree's long values). It has no
// release: on a mapped file it is a read-only view borrowed from the
// mapping and valid until Close; on every other backend it is one
// positioned read into a fresh buffer, and it bypasses the page cache.
// Callers treat the result as read-only either way (cmd/silint's
// borrowcheck enforces it).
//
// The read path is safe for concurrent use: ReadPage on a read-only
// File serves the mapping, the internally locked cache shards, or
// positioned reads (ReadAt) on per-goroutine pooled buffers, so any
// number of goroutines may read at once. The write path (Alloc, Write,
// Sync) is single-writer, which the bulk loader respects.
package pager

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// DefaultPageSize matches the system page size of the paper's testbed.
const DefaultPageSize = 4096

const (
	magic      = 0x53495047 // "SIPG"
	headerSize = 16
)

// File is a page-addressed file. Page 0 holds the pager's own header;
// pages are allocated sequentially and never freed (index files are
// write-once, read-many).
type File struct {
	f        *os.File
	pageSize int
	npages   uint32
	readonly bool
	cache    *pageCache // nil = uncached (the paper's default)
	data     []byte     // non-nil = read-only mmap of the whole file
	pool     sync.Pool  // *pageBuf scratch pages for the pread borrow path
}

// OpenOptions configure how an existing page file is opened for
// reading; the zero value reproduces Open (pread, no cache).
type OpenOptions struct {
	// CacheBytes is the budget of a sharded LRU page cache, rounded
	// down to whole pages; 0 or less disables the cache. A positive
	// budget selects the cached pread backend, so Mmap is then not
	// tried: asking for a cache is asking for that backend.
	CacheBytes int64
	// Mmap requests the memory-mapped backend when no cache is
	// requested: page reads become subslices of one read-only mapping of
	// the file. When the platform has no mmap, or mapping fails (exotic
	// filesystems, empty file), the open silently falls back to the
	// pread backend — the two are bit-for-bit equivalent, mapping is
	// purely a performance choice.
	Mmap bool
}

// pageBuf is one pooled scratch page for the uncached pread path. Its
// release closure is built once when the pool allocates it, so a
// steady-state ReadPage/release cycle allocates nothing.
type pageBuf struct {
	buf     []byte
	release func()
}

// noRelease is the shared no-op release returned for mmap and cache
// views, whose lifetime the File (or the garbage collector) manages.
func noRelease() {}

// initPool prepares the scratch-page pool; called from every
// constructor so ReadPage works on writable files too.
func (p *File) initPool() {
	p.pool.New = func() any {
		pb := &pageBuf{buf: make([]byte, p.pageSize)}
		pb.release = func() { p.pool.Put(pb) }
		return pb
	}
}

// Create creates (truncating) a page file at path with the given page
// size, which must be at least 64 bytes.
func Create(path string, pageSize int) (*File, error) {
	if pageSize < 64 {
		return nil, fmt.Errorf("pager: page size %d too small", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	p := &File{f: f, pageSize: pageSize, npages: 1}
	p.initPool()
	if err := p.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// Open opens an existing page file read-only with the default backend:
// positioned reads, no user-level cache.
func Open(path string) (*File, error) { return OpenWith(path, OpenOptions{}) }

// OpenWith opens an existing page file read-only with explicit backend
// options.
func OpenWith(path string, opts OpenOptions) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		f.Close()
		return nil, fmt.Errorf("pager: %s is not a page file", path)
	}
	p := &File{
		f:        f,
		pageSize: int(binary.LittleEndian.Uint32(hdr[4:])),
		npages:   binary.LittleEndian.Uint32(hdr[8:]),
		readonly: true,
	}
	if p.pageSize < 64 || p.pageSize > maxOpenPageSize {
		f.Close()
		return nil, fmt.Errorf("pager: corrupt header in %s", path)
	}
	p.initPool()
	if opts.CacheBytes > 0 {
		p.cache = newPageCache(int(opts.CacheBytes / int64(p.pageSize)))
		return p, nil
	}
	if opts.Mmap {
		if st, err := f.Stat(); err == nil && st.Size() > 0 && st.Size() <= int64(maxMapLen) {
			if data, err := mmapFile(f.Fd(), int(st.Size())); err == nil {
				p.data = data
			}
		}
	}
	return p, nil
}

// maxMapLen bounds a mapping to what a subslice index (int) can
// address; files beyond it fall back to pread.
const maxMapLen = int(^uint(0) >> 1)

// maxOpenPageSize bounds the page size Open accepts from a header: a
// hostile file claiming a multi-gigabyte page must be rejected before
// the read path allocates scratch buffers of that size. Far above any
// configuration the builder produces.
const maxOpenPageSize = 1 << 24

func (p *File) writeHeader() error {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(p.pageSize))
	binary.LittleEndian.PutUint32(hdr[8:], p.npages)
	_, err := p.f.WriteAt(hdr[:], 0)
	return err
}

// OpenCached opens an existing page file read-only with a sharded LRU
// page cache of roughly cacheBytes (rounded down to whole pages). A
// cacheBytes of 0 or less behaves exactly like Open: no user-level
// cache, preserving the paper's §6.1 experimental setup.
func OpenCached(path string, cacheBytes int64) (*File, error) {
	return OpenWith(path, OpenOptions{CacheBytes: cacheBytes})
}

// CacheStats returns the page-cache counters (zero when uncached).
func (p *File) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.stats()
}

// Mapped reports whether reads are served from a memory mapping.
func (p *File) Mapped() bool { return p.data != nil }

// Stable reports whether views returned by ReadPage stay valid until
// Close even after their release is called — true for the mmap and
// cached backends, false for the pooled pread path, whose buffers are
// reused after release.
func (p *File) Stable() bool { return p.data != nil || p.cache != nil }

// PageSize returns the page size in bytes.
func (p *File) PageSize() int { return p.pageSize }

// NumPages returns the number of allocated pages, including page 0.
func (p *File) NumPages() uint32 { return p.npages }

// SizeBytes returns the total file size implied by the allocated pages.
func (p *File) SizeBytes() int64 { return int64(p.npages) * int64(p.pageSize) }

// Alloc allocates a fresh page and returns its id.
func (p *File) Alloc() (uint32, error) {
	if p.readonly {
		return 0, fmt.Errorf("pager: alloc on read-only file")
	}
	id := p.npages
	p.npages++
	return id, nil
}

// ReadPage returns a read-only view of page id under the borrow
// contract (see the package comment): the view is valid until release,
// and until Close on a Stable file. release must be called exactly
// once; it is cheap (often a no-op). A mapping too short for the
// requested page — a truncated or hostile file — returns an error
// rather than over-reading.
func (p *File) ReadPage(id uint32) (data []byte, release func(), err error) {
	if id == 0 || id >= p.npages {
		return nil, nil, fmt.Errorf("pager: read of unallocated page %d (have %d)", id, p.npages)
	}
	if p.data != nil {
		off := int64(id) * int64(p.pageSize)
		end := off + int64(p.pageSize)
		if end > int64(len(p.data)) {
			return nil, nil, fmt.Errorf("pager: page %d ends at %d, beyond the %d-byte mapping", id, end, len(p.data))
		}
		return p.data[off:end:end], noRelease, nil
	}
	if p.cache != nil {
		if data, ok := p.cache.getRef(id); ok {
			return data, noRelease, nil
		}
		// Miss: read into a fresh buffer and hand it to the cache whole.
		// The caller's view is the cache entry itself; even if evicted
		// before release, the garbage collector keeps it alive.
		buf := make([]byte, p.pageSize)
		if _, err := p.f.ReadAt(buf, int64(id)*int64(p.pageSize)); err != nil {
			return nil, nil, err
		}
		p.cache.putOwned(id, buf)
		return buf, noRelease, nil
	}
	pb := p.pool.Get().(*pageBuf)
	if _, err := p.f.ReadAt(pb.buf, int64(id)*int64(p.pageSize)); err != nil {
		pb.release()
		return nil, nil, err
	}
	return pb.buf, pb.release, nil
}

// ReadExtent returns the n bytes stored from the start of page first
// on, across as many consecutive pages as they need. On a mapped file
// the result is a capped subslice of the mapping — no copy, no
// allocation, no syscall — valid until Close. Otherwise it is one
// positioned read of exactly n bytes into a fresh buffer the caller
// owns; the page cache is neither consulted nor filled, so it keeps
// holding single tree pages only. A range past the allocated pages (or
// the mapping) is an error rather than an over-read.
func (p *File) ReadExtent(first uint32, n int) ([]byte, error) {
	off := int64(first) * int64(p.pageSize)
	end := off + int64(n)
	if first == 0 || n < 0 || end > p.SizeBytes() {
		return nil, fmt.Errorf("pager: extent of %d bytes from page %d runs past the %d allocated pages", n, first, p.npages)
	}
	if p.data != nil {
		if end > int64(len(p.data)) {
			return nil, fmt.Errorf("pager: extent from page %d ends at %d, beyond the %d-byte mapping", first, end, len(p.data))
		}
		return p.data[off:end:end], nil
	}
	buf := make([]byte, n)
	if _, err := p.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// Read fills buf (which must be exactly one page long) with page id.
func (p *File) Read(id uint32, buf []byte) error {
	if len(buf) != p.pageSize {
		return fmt.Errorf("pager: read buffer is %d bytes, want %d", len(buf), p.pageSize)
	}
	data, release, err := p.ReadPage(id)
	if err != nil {
		return err
	}
	copy(buf, data)
	release()
	return nil
}

// Write stores buf (exactly one page) at page id, which must have been
// allocated.
func (p *File) Write(id uint32, buf []byte) error {
	if p.readonly {
		return fmt.Errorf("pager: write on read-only file")
	}
	if len(buf) != p.pageSize {
		return fmt.Errorf("pager: write buffer is %d bytes, want %d", len(buf), p.pageSize)
	}
	if id == 0 || id >= p.npages {
		return fmt.Errorf("pager: write of unallocated page %d", id)
	}
	_, err := p.f.WriteAt(buf, int64(id)*int64(p.pageSize))
	return err
}

// Sync flushes the header and file contents to stable storage.
func (p *File) Sync() error {
	if p.readonly {
		return nil
	}
	if err := p.writeHeader(); err != nil {
		return err
	}
	return p.f.Sync()
}

// Close syncs (when writable), unmaps (when mapped) and closes the
// file. On a mapped file Close must not race in-flight ReadPage views;
// the index's epoch/refcount machinery guarantees that by closing a
// segment's files only after its last pinned reader drains.
func (p *File) Close() error {
	if !p.readonly {
		if err := p.Sync(); err != nil {
			p.f.Close()
			return err
		}
	}
	var unmapErr error
	if p.data != nil {
		unmapErr = munmapFile(p.data)
		p.data = nil
	}
	if err := p.f.Close(); err != nil {
		return err
	}
	return unmapErr
}
