package btree

// Iterator walks key/value pairs in ascending key order, starting at the
// first key >= the start bound. It reads the leaves in fence order,
// borrowing one page view at a time under the pager's borrow contract:
// the current leaf stays borrowed across Next calls and is released when
// the iterator advances to the next leaf or finishes. Keys and inline
// values are copied into per-iterator buffers reused across Next calls,
// so they stay valid until the next Next regardless of backend; extent
// values are returned as Get returns them.
type Iterator struct {
	t       *Tree
	leaf    int // fence index of the current leaf
	page    []byte
	release func() // releases the borrow on page; nil when none held
	i       int    // next entry index
	off     int    // byte offset of next entry
	start   []byte // the start bound, until the first key at or past it
	err     error
	done    bool

	key []byte
	val []byte // the current value: buf, or an extent borrowed from the mapping
	buf []byte // scratch for inline values; never an extent, which may be read-only
}

// Iterator returns an iterator positioned at the first key >= start
// (nil starts at the beginning).
func (t *Tree) Iterator(start []byte) *Iterator {
	// nextLeaf steps onto the leaf that may hold start: the first for a
	// start before every fence.
	it := &Iterator{t: t, start: start, leaf: max(t.leafFor(start), 0) - 1}
	it.nextLeaf()
	return it
}

// nextLeaf moves to the leaf of the next fence, ending the iteration
// after the last.
func (it *Iterator) nextLeaf() {
	it.dropPage()
	if it.leaf++; it.leaf >= len(it.t.fences) {
		it.done = true
		return
	}
	page, release, err := it.t.readLeaf(it.leaf)
	if err != nil {
		it.fail(err)
		return
	}
	it.page, it.release = page, release
	it.i, it.off = 0, leafHeader
}

// dropPage releases the current page borrow, if any.
func (it *Iterator) dropPage() {
	if it.release != nil {
		it.release()
		it.page, it.release = nil, nil
	}
}

// fail ends the iteration with err.
func (it *Iterator) fail(err error) {
	it.err = err
	it.done = true
	it.dropPage()
}

// Next advances to the next pair; it returns false at the end or on
// error (check Err).
func (it *Iterator) Next() bool {
	for !it.done {
		var e leafEntry
		i, off, found, err := e.seek(it.page, it.i, it.off, it.start)
		switch {
		case err != nil:
			it.fail(err)
		case !found:
			it.nextLeaf()
		default:
			// Keys ascend, so every later key is past the start bound too.
			it.i, it.off, it.start = i+1, off, nil
			it.key = append(it.key[:0], e.key...)
			if !e.extent {
				it.buf = append(it.buf[:0], e.val...)
				it.val = it.buf
				return true
			}
			if it.val, err = it.t.readExtent(e.first, e.vlen); err == nil {
				return true
			}
			it.fail(err)
		}
	}
	return false
}

// Key returns the current key; valid until the next call to Next.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value; valid until the next call to Next.
func (it *Iterator) Value() []byte { return it.val }

// Err reports any IO or corruption error encountered while iterating.
func (it *Iterator) Err() error { return it.err }
