package btree

import (
	"bytes"
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

// rawFile writes a page file whose meta page (page 1) is meta, followed
// by pages 2, 3, ... as given, each zero-padded to a page.
func rawFile(t testing.TB, meta []byte, pages ...[]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.idx")
	pf, err := pager.Create(path, rawPageSize)
	if err != nil {
		t.Fatal(err)
	}
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

// rawMeta lays out a meta page claiming keys keys in leaves leaves and
// a fence array of size bytes from page first on.
func rawMeta(keys uint64, leaves, first uint32, size uint64) []byte {
	m := []byte{pageMeta}
	m = binary.LittleEndian.AppendUint64(m, keys)
	m = binary.LittleEndian.AppendUint32(m, leaves)
	m = binary.LittleEndian.AppendUint32(m, first)
	return binary.LittleEndian.AppendUint64(m, size)
}

// fenceOf encodes one fence: key routes to the leaf at page.
func fenceOf(key string, page uint32) []byte {
	f := append([]byte{byte(len(key))}, key...)
	return binary.LittleEndian.AppendUint32(f, page)
}

// leafFile writes a file with the fence array on page 2, its one leaf on
// page 3 (fenced by key "0", below every key the tests look up) and the
// extra pages from page 4 on.
func leafFile(t testing.TB, leaf []byte, extra ...[]byte) string {
	t.Helper()
	fences := fenceOf("0", 3)
	return rawFile(t, rawMeta(1, 1, 2, uint64(len(fences))), append([][]byte{fences, leaf}, extra...)...)
}

// rawLeaf lays out a leaf page: the type byte, the entry count, then the
// entry bytes.
func rawLeaf(n uint16, entries ...byte) []byte {
	p := binary.LittleEndian.AppendUint16([]byte{pageLeaf}, n)
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
	expectCorrupt(t, leafFile(t, rawLeaf(1, longKey...)), "leaf entry 0 runs past its page", "k")
	longVal := append(inline("a", "1"), 0, 1, 'k', 0xac, 0x02) // vlen 300
	expectCorrupt(t, leafFile(t, rawLeaf(2, longVal...)), "leaf entry 1 runs past its page", "k")
	// More entries claimed than the page holds runs off its end too.
	expectCorrupt(t, leafFile(t, rawLeaf(60000, inline("a", "1")...)), "runs past its page", "z")
}

// extentEntry is a leaf entry of the given flag whose vlen-byte value
// claims to start at page first.
func extentEntry(flag byte, key string, vlen uint64, first uint32) []byte {
	e := append([]byte{flag, byte(len(key))}, key...)
	e = binary.AppendUvarint(e, vlen)
	return binary.LittleEndian.AppendUint32(e, first)
}

// TestOverflowLengthBeyondFile: a value claiming 1<<62 bytes once
// panicked with "makeslice: cap out of range". An extent must start past
// the meta page and end within the file; one ending exactly at the last
// page is intact.
func TestOverflowLengthBeyondFile(t *testing.T) {
	data := bytes.Repeat([]byte("x"), rawPageSize+1) // pages 4 and 5
	for _, c := range []struct {
		vlen  uint64
		first uint32
		want  string
	}{
		{1 << 62, 4, "extent of 4611686018427387904 bytes from page 4 lies outside the file's 6 pages"},
		{2*rawPageSize + 1, 4, "extent of 513 bytes from page 4 lies outside"},
		{rawPageSize + 1, 5, "extent of 257 bytes from page 5 lies outside"},
		{10, 0, "extent of 10 bytes from page 0 lies outside"},
		{10, 1, "extent of 10 bytes from page 1 lies outside"},
	} {
		leaf := rawLeaf(1, extentEntry(flagExtent, "k", c.vlen, c.first)...)
		expectCorrupt(t, leafFile(t, leaf, data[:rawPageSize], data[rawPageSize:]), c.want, "k")
	}

	leaf := rawLeaf(2, append(extentEntry(flagExtent, "k", uint64(len(data)), 4), inline("m", "1")...)...)
	path := leafFile(t, leaf, data[:rawPageSize], data[rawPageSize:])
	for _, mmap := range []bool{false, true} {
		tr, err := OpenWith(path, Options{Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		if v, found, err := tr.Get([]byte("k")); err != nil || !found || !bytes.Equal(v, data) {
			t.Errorf("mmap=%v: Get of an extent ending at the last page = %d bytes, %v, %v", mmap, len(v), found, err)
		}
		if err := scanAll(tr, nil); err != nil {
			t.Errorf("mmap=%v: scan: %v", mmap, err)
		}
		tr.Close()
	}
}

// TestChainedOverflowRefused: a leaf entry of the retired linked-chain
// format (flag 1) is refused with a request to rebuild, never read as an
// extent.
func TestChainedOverflowRefused(t *testing.T) {
	chain := append([]byte{0, 0, 0, 0}, "chained"...) // next page 0, then the bytes
	leaf := rawLeaf(1, extentEntry(flagChain, "k", 7, 4)...)
	expectCorrupt(t, leafFile(t, leaf, chain), "overflow chain, a format this version no longer reads: rebuild the index", "k")
}

// expectRefused requires opening path to fail on both backends with an
// error containing want.
func expectRefused(t *testing.T, path, want string) {
	t.Helper()
	for _, mmap := range []bool{false, true} {
		if tr, err := OpenWith(path, Options{Mmap: mmap}); err == nil || !strings.Contains(err.Error(), want) {
			if err == nil {
				tr.Close()
			}
			t.Errorf("mmap=%v: open ended with %v, want an error containing %q", mmap, err, want)
		}
	}
}

// TestHostileFencesRefusedAtOpen: the fence array routes every lookup,
// so it is checked whole at open — keys strictly increasing, every page
// past the meta page and within the file, exactly as many fences as the
// meta page claims leaves, the array itself within the file — before any
// lookup trusts it.
func TestHostileFencesRefusedAtOpen(t *testing.T) {
	leaf := rawLeaf(1, inline("a", "1")...)
	cat := func(fs ...[]byte) []byte { return bytes.Join(fs, nil) }
	for _, c := range []struct {
		name   string
		keys   uint64
		leaves uint32
		fences []byte
		want   string
	}{
		{"out of order", 2, 2, cat(fenceOf("b", 3), fenceOf("a", 4)), "fence 1 does not sort after fence 0"},
		{"repeated key", 2, 2, cat(fenceOf("a", 3), fenceOf("a", 4)), "fence 1 does not sort after fence 0"},
		{"page 0", 1, 1, fenceOf("a", 0), "fence 0 names page 0, outside the file's pages [2, 5)"},
		{"meta page", 1, 1, fenceOf("a", 1), "fence 0 names page 1, outside"},
		{"past the file", 2, 2, cat(fenceOf("a", 3), fenceOf("b", 5)), "fence 1 names page 5, outside"},
		{"fewer fences than leaves", 3, 3, cat(fenceOf("aaaa", 3), fenceOf("bbbb", 4)), "fence 2 runs past the fence array"},
		{"more fences than leaves", 1, 1, cat(fenceOf("a", 3), fenceOf("b", 4)), "6 bytes follow the 1 fences the meta page claims"},
		{"a key past the array", 1, 1, []byte{9, 'a', 3, 0, 0, 0}, "fence 0 runs past the fence array"},
		{"leaves beyond the array", 1 << 40, 1 << 31, fenceOf("a", 3), "cannot hold the 2147483648 leaves"},
		{"keys without leaves", 1, 0, nil, "meta page claims 1 keys in 0 leaves"},
		{"leaves without keys", 0, 1, fenceOf("a", 3), "meta page claims 0 keys in 1 leaves"},
	} {
		path := rawFile(t, rawMeta(c.keys, c.leaves, 2, uint64(len(c.fences))), c.fences, leaf, leaf)
		t.Run(c.name, func(t *testing.T) { expectRefused(t, path, c.want) })
	}
	// An array that starts in the file but ends past it, and one that
	// claims the meta page, are extents outside the file.
	fences := fenceOf("a", 3)
	t.Run("array past the file", func(t *testing.T) {
		expectRefused(t, rawFile(t, rawMeta(1, 1, 2, 3*rawPageSize), fences, leaf), "extent of 768 bytes from page 2 lies outside the file's 4 pages")
	})
	t.Run("array on the meta page", func(t *testing.T) {
		expectRefused(t, rawFile(t, rawMeta(1, 1, 1, 6), fences, leaf), "extent of 6 bytes from page 1 lies outside")
	})
}

// TestFenceToNonLeafPage: a fence may name any page of the file, so the
// page it names must carry the leaf tag; an extent page, or the fence
// array's own page, fails the lookup and the scan.
func TestFenceToNonLeafPage(t *testing.T) {
	data := []byte("value bytes of an extent")
	for _, c := range []struct {
		page uint32
		want string
	}{
		{4, "fence 1 names page 4 of type 'v', not a leaf"},
		{2, "fence 1 names page 2 of type '\\x01', not a leaf"},
	} {
		fences := append(fenceOf("0", 3), fenceOf("m", c.page)...)
		path := rawFile(t, rawMeta(2, 2, 2, uint64(len(fences))), fences, rawLeaf(1, inline("a", "1")...), data)
		expectCorrupt(t, path, c.want, "m", "z")
	}
}

// TestOlderFormatRefused: a file of the older multi-level format — a
// meta page tagged 'M' over internal pages and a leaf chain, here as
// the previous builder wrote it for 30 keys at 64-byte pages — is
// refused at open with a request to rebuild, never misread.
func TestOlderFormatRefused(t *testing.T) {
	expectRefused(t, filepath.Join("testdata", "levels.idx"), "a format this version no longer reads: rebuild the index")
}

// TestHostileHeadersRefusedAtOpen: a pager header claiming more pages
// than the file holds is refused before any lookup trusts it.
func TestHostileHeadersRefusedAtOpen(t *testing.T) {
	path := leafFile(t, rawLeaf(1, inline("a", "1")...))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[8:], 1<<30) // the pager header's page count
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	expectRefused(t, path, "pages its header claims")
}
