package a

import "errors"

// ReadExtent mirrors pager.File.ReadExtent: on a mapped file the
// result is a subslice of a read-only mapping.
func (f *pagerFile) ReadExtent(first uint32, n int) ([]byte, error) {
	if first == 0 {
		return nil, errors.New("bad extent")
	}
	return make([]byte, n), nil
}

type tree struct{ pf *pagerFile }

// readExtent is a package-local extent wrapper, the shape of the
// B+Tree's: it returns the pager's view directly, so it is a source.
func (t *tree) readExtent(first uint32, n int) ([]byte, error) {
	if first < 2 {
		return nil, errors.New("extent outside the file")
	}
	return t.pf.ReadExtent(first, n)
}

// iterator reproduces the B+Tree iterator's bug: val holds an extent
// after one call, and the next call appends an inline value into it,
// which writes into the mapping.
type iterator struct {
	t      *tree
	inline []byte
	val    []byte
	buf    []byte
}

func (it *iterator) next(extent bool) error {
	if !extent {
		it.val = append(it.val[:0], it.inline...) // want `append writes into it.val, a read-only view`
		return nil
	}
	var err error
	it.val, err = it.t.readExtent(2, 8)
	return err
}

// nextScratch is the fix: inline values go through a scratch buffer
// that never holds an extent, and val only points at one or the other.
func (it *iterator) nextScratch(extent bool) error {
	if !extent {
		it.buf = append(it.buf[:0], it.inline...)
		it.val = it.buf
		return nil
	}
	var err error
	it.val, err = it.t.readExtent(2, 8)
	return err
}

// writeExtent writes through an extent in each flagged way.
func writeExtent(f *pagerFile, src []byte) {
	v, err := f.ReadExtent(2, 8)
	if err != nil {
		return
	}
	v[0] = 1               // want `element assignment writes into v`
	v[1]++                 // want `element assignment writes into v`
	copy(v[2:], src)       // want `copy writes into v`
	_ = append(v[:4], 'x') // want `append writes into v`
	func() {
		v[3] |= 1 // want `element assignment writes into v, a read-only view \(in func literal\)`
	}()
}

// writePage writes through a ReadPage view.
func writePage(f *pagerFile) {
	view, release, err := f.ReadPage(12)
	if err != nil {
		return
	}
	defer release()
	view[0] = 0 // want `element assignment writes into view`
}

// valueOf returns a variable holding a view, so its result is one too.
func (t *tree) valueOf(first uint32) []byte {
	v, err := t.readExtent(first, 8)
	if err != nil {
		return nil
	}
	return v
}

type entry struct{ key, val []byte }

// throughWrapper writes through a wrapper's result and through a field
// a composite literal gave a view.
func throughWrapper(t *tree) {
	v := t.valueOf(3)
	v[0] = 1 // want `element assignment writes into v`
	e := entry{key: []byte("k"), val: v}
	e.val[0] = 2 // want `element assignment writes into e.val`
	e.key[0] = 3
}

// fieldHeldElsewhere writes through holder.data, which escapeField
// gives a view: a field that holds a view anywhere in the package is
// read-only everywhere in it.
func fieldHeldElsewhere(h *holder) {
	h.data[0] = 0 // want `element assignment writes into h.data`
}

// copies writes only into buffers it owns: a copy of the view, and an
// append that starts from the whole view (a capped extent reallocates).
func copies(f *pagerFile) []byte {
	v, err := f.ReadExtent(2, 8)
	if err != nil {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	out[0] = 1
	grown := append(v, 'x')
	return append(grown, out...)
}
