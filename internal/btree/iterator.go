package btree

import (
	"encoding/binary"
	"fmt"
)

// Iterator walks key/value pairs in ascending key order, starting at the
// first key >= the start bound. It reads leaf pages through the chain
// pointers left by the bulk loader, borrowing one page view at a time
// under the pager's borrow contract: the current leaf stays borrowed
// across Next calls and is released when the iterator advances to the
// next leaf or finishes. Keys and inline values are copied into
// per-iterator buffers reused across Next calls, so they stay valid
// until the next Next regardless of backend.
type Iterator struct {
	t       *Tree
	page    []byte
	release func() // releases the borrow on page; nil when none held
	i       int    // next entry index
	off     int    // byte offset of next entry
	start   []byte // the start bound, until the first key at or past it
	hops    uint32 // leaf-chain links followed, bounded by the file's pages
	err     error
	done    bool

	key []byte
	val []byte
}

// Iterator returns an iterator positioned at the first key >= start
// (nil starts at the beginning).
func (t *Tree) Iterator(start []byte) *Iterator {
	it := &Iterator{t: t, start: start}
	if t.keys == 0 {
		it.done = true
		return it
	}
	page, release, err := t.descend(start)
	if err != nil {
		it.fail(err)
		return it
	}
	it.setLeaf(page, release)
	return it
}

// setLeaf makes the borrowed leaf page the current one.
func (it *Iterator) setLeaf(page []byte, release func()) {
	it.page, it.release = page, release
	it.i, it.off = 0, leafHeader
}

// nextLeaf moves to the next leaf of the chain, ending the iteration
// after the last. A chain with more links than the file has pages loops.
func (it *Iterator) nextLeaf() {
	id := binary.LittleEndian.Uint32(it.page[3:])
	it.dropPage()
	if id == 0 {
		it.done = true
		return
	}
	if it.hops++; it.hops > it.t.pf.NumPages() {
		it.fail(fmt.Errorf("btree: leaf chain runs past the file's %d pages", it.t.pf.NumPages()))
		return
	}
	page, release, err := it.t.pf.ReadPage(id)
	if err != nil {
		it.fail(err)
		return
	}
	if page[0] != pageLeaf {
		b := page[0]
		release()
		it.fail(fmt.Errorf("btree: leaf chain reaches page type %q at %d", b, id))
		return
	}
	it.setLeaf(page, release)
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
			if !e.overflow {
				it.val = append(it.val[:0], e.val...)
				return true
			}
			if it.val, err = it.t.readOverflow(e.first, e.vlen); err == nil {
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
