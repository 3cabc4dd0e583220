package btree

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// fuzzKeys are looked up in every fuzzed file: keys of the seed trees,
// and keys before, between and after them.
var fuzzKeys = []string{"", "a", "k00", "k07", "k13", "k13x", "k29", "o0", "o2", "o3", "zz"}

// fuzzSeed builds a tree of the given pairs at the smallest page size, so
// a tree of many leaves with extent values is a few KiB, and returns the
// file's bytes.
func fuzzSeed(f *testing.F, pairs [][2]string) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), "seed.idx")
	b, err := NewBuilder(path, 64)
	if err != nil {
		f.Fatal(err)
	}
	for _, kv := range pairs {
		if err := b.Add([]byte(kv[0]), []byte(kv[1])); err != nil {
			f.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzBTreeGet opens mutated bytes of built files on both read backends
// and runs every lookup of fuzzKeys and a full Iterator scan. A hostile
// file — lengths past their page, fences out of order or naming pages
// outside the file or not a leaf, extents outside the file, files and
// entries of retired formats, lying headers — may fail at open, at a
// lookup or mid-scan, but must never panic or run without end: the scan
// is held to at most one entry per byte of the file. The committed
// corpus under testdata/fuzz adds the hand-built hostile pages of
// corrupt_test.go and files of the older multi-level format.
func FuzzBTreeGet(f *testing.F) {
	var small, large [][2]string
	for i := 0; i < 30; i++ {
		small = append(small, [2]string{fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)})
	}
	for i := 0; i < 4; i++ {
		large = append(large, [2]string{fmt.Sprintf("o%d", i), string(bytes.Repeat([]byte{byte('a' + i)}, 40*i))})
	}
	f.Add(fuzzSeed(f, small))
	f.Add(fuzzSeed(f, large))
	f.Add(fuzzSeed(f, nil))
	f.Add(fuzzSeed(f, append(small, large...))) // many leaves beside extents, so the fence array is fuzzed

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.idx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mmap := range []bool{false, true} {
			tr, err := OpenWith(path, Options{Mmap: mmap})
			if err != nil {
				continue // rejecting a hostile file is a correct outcome
			}
			for _, k := range fuzzKeys {
				tr.Get([]byte(k))
			}
			it := tr.Iterator(nil)
			for n := int64(0); it.Next(); n++ {
				if n > tr.Stats().SizeBytes {
					t.Fatalf("mmap=%v: scan passed %d entries in a %d-byte file", mmap, n, tr.Stats().SizeBytes)
				}
			}
			tr.Close()
		}
	})
}
