package pager

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestCreateWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	f, err := Create(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id1 == 0 || id2 == 0 || id1 == id2 {
		t.Fatalf("bad ids %d %d", id1, id2)
	}
	page := make([]byte, 128)
	for i := range page {
		page[i] = byte(i)
	}
	if err := f.Write(id2, page); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.PageSize() != 128 {
		t.Errorf("PageSize = %d", r.PageSize())
	}
	if r.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", r.NumPages())
	}
	got, release, err := r.ReadPage(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Error("page contents differ")
	}
	release()
	if r.SizeBytes() != 3*128 {
		t.Errorf("SizeBytes = %d", r.SizeBytes())
	}
}

func TestBoundsAndModeErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	f, err := Create(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, _, err := f.ReadPage(0); err == nil {
		t.Error("read of page 0 should fail")
	}
	if _, _, err := f.ReadPage(9); err == nil {
		t.Error("read of unallocated page should fail")
	}
	if err := f.Write(9, buf); err == nil {
		t.Error("write of unallocated page should fail")
	}
	if err := f.Write(1, buf[:10]); err == nil {
		t.Error("short write buffer should fail")
	}
	f.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Alloc(); err == nil {
		t.Error("alloc on read-only file should fail")
	}
	if err := r.Write(1, buf); err == nil {
		t.Error("write on read-only file should fail")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Error("want error for missing file")
	}
	bad := filepath.Join(dir, "bad")
	if err := writeFile(bad, []byte("not a page file at all, definitely")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); err == nil {
		t.Error("want error for non-page file")
	}
}

func TestTooSmallPageSize(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "p"), 8); err == nil {
		t.Error("want error for tiny page size")
	}
	// Above maxOpenPageSize OpenWith refuses the header as corrupt, so
	// Create must refuse to write such a file in the first place.
	if _, err := Create(filepath.Join(t.TempDir(), "p"), maxOpenPageSize+1); err == nil {
		t.Error("want error for a page size OpenWith would refuse")
	}
	f, err := Create(filepath.Join(t.TempDir(), "p"), maxOpenPageSize)
	if err != nil {
		t.Fatalf("largest openable page size: %v", err)
	}
	f.Close()
}

// writePages creates a page file with n data pages, each stamped with
// its own id, and returns its path.
func writePages(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pages.db")
	f, err := Create(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	for i := 0; i < n; i++ {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(buf, id)
		if err := f.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// readPage borrows page id, checks its stamp and releases the view. It
// reports rather than fails, so goroutines may call it.
func readPage(f *File, id uint32) error {
	data, release, err := f.ReadPage(id)
	if err != nil {
		return err
	}
	defer release()
	if got := binary.LittleEndian.Uint32(data); got != id {
		return fmt.Errorf("page %d holds stamp %d", id, got)
	}
	return nil
}

// TestConcurrentReads re-reads pages from 8 goroutines on both
// backends. On pread every view is a pooled scratch page handed back on
// release, so under -race this checks that no two readers ever share
// one.
func TestConcurrentReads(t *testing.T) {
	const pages = 32
	path := writePages(t, pages)
	for _, mmap := range []bool{false, true} {
		f, err := OpenWith(path, OpenOptions{Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		if !mmap && f.Stable() {
			t.Error("pread backend reports stable views")
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := readPage(f, uint32(1+(g*7+i)%pages)); err != nil {
						t.Errorf("mmap=%v: %v", mmap, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		f.Close()
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
