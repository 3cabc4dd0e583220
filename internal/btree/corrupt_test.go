package btree

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pager"
)

// A B+Tree file is outside input: a follower serves index files it
// pulled over the network, and a panic inside a search goroutine kills
// the server. Each test below hand-builds a small tree with one hostile
// page and holds Get and a full Iterator scan, on both read backends, to
// an error — never a panic, never a hang.

const rawPageSize = 256

// rawFile writes a page file whose meta page (page 1) claims the given
// root, key count and height, followed by pages 2, 3, ... as given.
func rawFile(t testing.TB, root uint32, height uint32, pages ...[]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.idx")
	pf, err := pager.Create(path, rawPageSize)
	if err != nil {
		t.Fatal(err)
	}
	meta := make([]byte, rawPageSize)
	meta[0] = pageMeta
	binary.LittleEndian.PutUint32(meta[1:], root)
	binary.LittleEndian.PutUint64(meta[5:], 1)
	binary.LittleEndian.PutUint32(meta[13:], height)
	for _, p := range append([][]byte{meta}, pages...) {
		id, err := pf.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, rawPageSize)
		copy(page, p)
		if err := pf.Write(id, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// rawPage lays out a leaf or internal page: the type byte, the entry
// count, the next leaf (leaf) or leftmost child (internal), then the
// entry bytes.
func rawPage(kind byte, n uint16, link uint32, entries ...byte) []byte {
	p := []byte{kind, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint16(p[1:], n)
	binary.LittleEndian.PutUint32(p[3:], link)
	return append(p, entries...)
}

// inline is a well-formed inline leaf entry.
func inline(key, val string) []byte {
	e := append([]byte{0}, byte(len(key)))
	e = append(append(e, key...), byte(len(val)))
	return append(e, val...)
}

// expectCorrupt opens path on both backends and requires Get of each
// key and a full scan to fail with an error containing want.
func expectCorrupt(t *testing.T, path, want string, keys ...string) {
	t.Helper()
	for _, mmap := range []bool{false, true} {
		tr, err := OpenWith(path, Options{Mmap: mmap})
		if err != nil {
			t.Fatalf("mmap=%v: open: %v", mmap, err)
		}
		for _, k := range keys {
			if v, found, err := tr.Get([]byte(k)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("mmap=%v: Get(%q) = %q, %v, %v; want an error containing %q", mmap, k, v, found, err, want)
			}
		}
		if err := scanAll(tr, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("mmap=%v: full scan ended with %v, want an error containing %q", mmap, err, want)
		}
		tr.Close()
	}
}

// scanAll iterates from start to the end and reports the iterator's
// error.
func scanAll(tr *Tree, start []byte) error {
	it := tr.Iterator(start)
	for it.Next() {
	}
	return it.Err()
}

// TestLeafEntryPastPage: a key length, and then a value length, that
// runs past the page once panicked in searchLeaf ("slice bounds out of
// range [:260] with capacity 256").
func TestLeafEntryPastPage(t *testing.T) {
	longKey := append([]byte{0, 0xfa, 0x01}, "k"...) // klen 250
	expectCorrupt(t, rawFile(t, 2, 1, rawPage(pageLeaf, 1, 0, longKey...)), "leaf entry 0 runs past its page", "k")
	longVal := append(inline("a", "1"), 0, 1, 'k', 0xac, 0x02) // vlen 300
	expectCorrupt(t, rawFile(t, 2, 1, rawPage(pageLeaf, 2, 0, longVal...)), "leaf entry 1 runs past its page", "k")
	// More entries claimed than the page holds runs off its end too.
	expectCorrupt(t, rawFile(t, 2, 1, rawPage(pageLeaf, 60000, 0, inline("a", "1")...)), "runs past its page", "z")
}

// TestInternalEntryPastPage: routeInternal decodes separator keys with
// the same length field.
func TestInternalEntryPastPage(t *testing.T) {
	root := rawPage(pageInternal, 1, 3, 0xfa, 0x01, 'k') // klen 250
	path := rawFile(t, 2, 2, root, rawPage(pageLeaf, 1, 0, inline("a", "1")...))
	expectCorrupt(t, path, "internal entry 0 runs past its page", "a", "z")
}

// TestOverflowLengthBeyondFile: a value claiming 1<<62 bytes once
// panicked in readOverflow with "makeslice: cap out of range".
func TestOverflowLengthBeyondFile(t *testing.T) {
	entry := append([]byte{1, 1, 'k'}, binary.AppendUvarint(nil, 1<<62)...)
	entry = append(entry, 3, 0, 0, 0) // first chain page
	path := rawFile(t, 2, 1, rawPage(pageLeaf, 1, 0, entry...), []byte{0, 0, 0, 0})
	expectCorrupt(t, path, "overflow value of 4611686018427387904 bytes", "k")
}

// TestCyclicDescent: an internal page whose leftmost child is itself
// once made Get loop forever; a descent deeper than the meta page's
// height is now an error.
func TestCyclicDescent(t *testing.T) {
	path := rawFile(t, 2, 2, rawPage(pageInternal, 0, 2))
	expectCorrupt(t, path, "internal page 2 at depth 2 of a tree of height 2", "k")
	// A child pointer into an overflow page is refused by its type.
	path = rawFile(t, 2, 2, rawPage(pageInternal, 0, 3), []byte{0, 0, 0, 0})
	expectCorrupt(t, path, "unexpected page type", "k")
}

// TestCyclicLeafChain: a leaf chain that links back on itself once made
// a full scan run forever; the chain is now bounded by the file's page
// count. A chain into a non-leaf page is refused.
func TestCyclicLeafChain(t *testing.T) {
	path := rawFile(t, 2, 1, rawPage(pageLeaf, 1, 2, inline("a", "1")...))
	for _, mmap := range []bool{false, true} {
		tr, err := OpenWith(path, Options{Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		if v, found, err := tr.Get([]byte("a")); err != nil || !found || string(v) != "1" {
			t.Errorf("mmap=%v: Get(a) = %q, %v, %v on an intact leaf", mmap, v, found, err)
		}
		for _, start := range []string{"", "b"} {
			if err := scanAll(tr, []byte(start)); err == nil || !strings.Contains(err.Error(), "leaf chain runs past the file's 3 pages") {
				t.Errorf("mmap=%v: scan from %q of a cyclic chain ended with %v", mmap, start, err)
			}
		}
		tr.Close()
	}
	path = rawFile(t, 2, 1, rawPage(pageLeaf, 1, 3, inline("a", "1")...), rawPage(pageInternal, 0, 0))
	tr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := scanAll(tr, nil); err == nil || !strings.Contains(err.Error(), "leaf chain reaches page type 'I' at 3") {
		t.Errorf("chain into an internal page ended with %v", err)
	}
}

// TestHostileHeadersRefusedAtOpen: a meta page claiming more levels than
// the file has pages, and a pager header claiming more pages than the
// file holds, are refused before any lookup trusts them.
func TestHostileHeadersRefusedAtOpen(t *testing.T) {
	leaf := rawPage(pageLeaf, 1, 0, inline("a", "1")...)
	if _, err := Open(rawFile(t, 2, 1<<31, leaf)); err == nil || !strings.Contains(err.Error(), "claims height") {
		t.Errorf("height 1<<31 in a 3-page file: %v", err)
	}
	path := rawFile(t, 2, 1, leaf)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:], 1<<30) // the pager header's page count
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		if _, err := OpenWith(path, Options{Mmap: mmap}); err == nil || !strings.Contains(err.Error(), "pages its header claims") {
			t.Errorf("mmap=%v: header claiming 1<<30 pages: %v", mmap, err)
		}
	}
}
