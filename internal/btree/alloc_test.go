//go:build !race

package btree

import (
	"bytes"
	"testing"
)

// TestMappedExtentGetAllocatesNothing: under mmap a long value is
// borrowed from the mapping, so a lookup allocates nothing at all. (The
// race detector's instrumentation allocates, hence the build tag.)
func TestMappedExtentGetAllocatesNothing(t *testing.T) {
	want := bytes.Repeat([]byte{7}, longValue)
	pairs := [][2][]byte{{[]byte("a"), []byte("1")}, {[]byte("long"), want}, {[]byte("z"), []byte("2")}}
	tr := openTree(t, buildFile(t, 4096, pairs), Options{Mmap: true})
	if !tr.Mapped() {
		t.Skip("mmap unavailable")
	}
	key := []byte("long")
	if v, found, err := tr.Get(key); err != nil || !found || !bytes.Equal(v, want) {
		t.Fatalf("Get(long) = %d bytes, %v, %v", len(v), found, err)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Get(key) }); n != 0 {
		t.Errorf("mapped extent Get allocates %.1f times, want 0", n)
	}
}
