package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"
)

// buildTree builds pairs into a fresh file and opens it with pread.
func buildTree(t testing.TB, pageSize int, pairs [][2][]byte) *Tree {
	t.Helper()
	return openTree(t, buildFile(t, pageSize, pairs), Options{})
}

// buildFile bulk-loads pairs into a fresh file and returns its path.
func buildFile(t testing.TB, pageSize int, pairs [][2][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.db")
	b, err := NewBuilder(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range pairs {
		if err := b.Add(kv[0], kv[1]); err != nil {
			t.Fatalf("Add(%q): %v", kv[0], err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// openTree opens path with opts, closing it when the test ends.
func openTree(t testing.TB, path string, opts Options) *Tree {
	t.Helper()
	tr, err := OpenWith(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestEmptyTree(t *testing.T) {
	tr := buildTree(t, 256, nil)
	if _, found, err := tr.Get([]byte("x")); err != nil || found {
		t.Errorf("Get on empty: found=%v err=%v", found, err)
	}
	st := tr.Stats()
	if st.Keys != 0 || st.Height != 1 {
		t.Errorf("stats = %+v", st)
	}
	it := tr.Iterator(nil)
	if it.Next() {
		t.Error("iterator on empty tree yielded an entry")
	}
}

func TestSingleKey(t *testing.T) {
	tr := buildTree(t, 256, [][2][]byte{{[]byte("k"), []byte("v")}})
	v, found, err := tr.Get([]byte("k"))
	if err != nil || !found || string(v) != "v" {
		t.Errorf("Get = %q, %v, %v", v, found, err)
	}
	if _, found, _ := tr.Get([]byte("j")); found {
		t.Error("found absent key j")
	}
	if _, found, _ := tr.Get([]byte("l")); found {
		t.Error("found absent key l")
	}
}

func TestManyKeysSmallPages(t *testing.T) {
	// Small pages force a multi-level tree.
	var pairs [][2][]byte
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		v := []byte(fmt.Sprintf("value-%d", i*7))
		pairs = append(pairs, [2][]byte{k, v})
	}
	tr := buildTree(t, 128, pairs)
	st := tr.Stats()
	if st.Keys != 1000 {
		t.Errorf("Keys = %d", st.Keys)
	}
	if st.Height < 3 {
		t.Errorf("Height = %d, want a deep tree with 128B pages", st.Height)
	}
	for i := 0; i < 1000; i += 13 {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, found, err := tr.Get(k)
		if err != nil || !found {
			t.Fatalf("Get(%q): %v %v", k, found, err)
		}
		if want := fmt.Sprintf("value-%d", i*7); string(v) != want {
			t.Errorf("Get(%q) = %q, want %q", k, v, want)
		}
	}
	for _, absent := range []string{"key", "key000500x", "zzz", "a"} {
		if _, found, _ := tr.Get([]byte(absent)); found {
			t.Errorf("found absent key %q", absent)
		}
	}
}

func TestLargeValuesOverflow(t *testing.T) {
	big := bytes.Repeat([]byte("abcdefgh"), 4096) // 32 KiB value
	pairs := [][2][]byte{
		{[]byte("a"), []byte("small")},
		{[]byte("b"), big},
		{[]byte("c"), bytes.Repeat([]byte{0xFF}, 300)},
	}
	path := buildFile(t, 256, pairs)
	for _, mmap := range []bool{false, true} {
		tr := openTree(t, path, Options{Mmap: mmap})
		v, found, err := tr.Get([]byte("b"))
		if err != nil || !found {
			t.Fatalf("mmap=%v: Get(b): %v %v", mmap, found, err)
		}
		if !bytes.Equal(v, big) {
			t.Errorf("mmap=%v: extent value corrupted: len %d want %d", mmap, len(v), len(big))
		}
		v, found, _ = tr.Get([]byte("c"))
		if !found || !bytes.Equal(v, bytes.Repeat([]byte{0xFF}, 300)) {
			t.Errorf("mmap=%v: medium value corrupted", mmap)
		}
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.db")
	b, err := NewBuilder(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(nil, []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	if err := b.Add(bytes.Repeat([]byte("x"), 10000), nil); err == nil {
		t.Error("oversized key accepted")
	}
	if err := b.Add([]byte("m"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte("m"), []byte("2")); err == nil {
		t.Error("duplicate key accepted")
	}
	if err := b.Add([]byte("a"), []byte("3")); err == nil {
		t.Error("out-of-order key accepted")
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Finish(); err == nil {
		t.Error("double Finish accepted")
	}
	if err := b.Add([]byte("z"), nil); err == nil {
		t.Error("Add after Finish accepted")
	}
}

func TestIteratorFullScan(t *testing.T) {
	var pairs [][2][]byte
	for i := 0; i < 500; i++ {
		pairs = append(pairs, [2][]byte{
			[]byte(fmt.Sprintf("k%05d", i)),
			[]byte(fmt.Sprintf("v%d", i)),
		})
	}
	tr := buildTree(t, 128, pairs)
	it := tr.Iterator(nil)
	i := 0
	for it.Next() {
		if string(it.Key()) != fmt.Sprintf("k%05d", i) {
			t.Fatalf("key %d = %q", i, it.Key())
		}
		if string(it.Value()) != fmt.Sprintf("v%d", i) {
			t.Fatalf("value %d = %q", i, it.Value())
		}
		i++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if i != 500 {
		t.Errorf("iterated %d keys, want 500", i)
	}
}

func TestIteratorSeek(t *testing.T) {
	var pairs [][2][]byte
	for i := 0; i < 300; i += 2 { // even keys only
		pairs = append(pairs, [2][]byte{
			[]byte(fmt.Sprintf("k%05d", i)),
			[]byte("v"),
		})
	}
	tr := buildTree(t, 128, pairs)
	// Seek to an absent (odd) key: next even key must come first.
	it := tr.Iterator([]byte("k00101"))
	if !it.Next() {
		t.Fatal("no entries after seek")
	}
	if string(it.Key()) != "k00102" {
		t.Errorf("first key after seek = %q, want k00102", it.Key())
	}
	// Seek to a present key returns it.
	it = tr.Iterator([]byte("k00100"))
	if !it.Next() || string(it.Key()) != "k00100" {
		t.Errorf("seek to present key: %q", it.Key())
	}
	// Seek beyond the end yields nothing.
	it = tr.Iterator([]byte("z"))
	if it.Next() {
		t.Errorf("seek past end yielded %q", it.Key())
	}
}

// TestIteratorInlineAfterExtentMapped: on the mmap backend an extent
// value is a read-only view of the mapping, so the iterator must never
// copy the next inline value into it — that write faults.
func TestIteratorInlineAfterExtentMapped(t *testing.T) {
	var pairs [][2][]byte
	for i := 0; i < 40; i++ {
		v := []byte(fmt.Sprintf("v%d", i))
		if i%3 == 1 {
			v = bytes.Repeat(v, 300) // an extent of several 256-byte pages
		}
		pairs = append(pairs, [2][]byte{[]byte(fmt.Sprintf("k%02d", i)), v})
	}
	tr := openTree(t, buildFile(t, 256, pairs), Options{Mmap: true})
	if !tr.Mapped() {
		t.Skip("mmap unavailable")
	}
	for _, from := range []int{0, 7} { // a full scan, and a seek onto an extent
		var start []byte
		if from > 0 {
			start = pairs[from][0]
		}
		it, i := tr.Iterator(start), from
		for ; it.Next(); i++ {
			if !bytes.Equal(it.Key(), pairs[i][0]) || !bytes.Equal(it.Value(), pairs[i][1]) {
				t.Fatalf("scan from %q: entry %d = %q, %d value bytes", start, i, it.Key(), len(it.Value()))
			}
		}
		if err := it.Err(); err != nil || i != len(pairs) {
			t.Errorf("scan from %q ended at %d of %d: %v", start, i, len(pairs), err)
		}
	}
}

func TestQuickRandomKeyValueRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, pageChoice uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%400) + 1
		pageSize := []int{128, 256, 512, 4096}[pageChoice%4]
		m := map[string][]byte{}
		for len(m) < n {
			klen := rng.Intn(20) + 1
			k := make([]byte, klen)
			for i := range k {
				k[i] = byte('a' + rng.Intn(26))
			}
			vlen := rng.Intn(600)
			v := make([]byte, vlen)
			rng.Read(v)
			m[string(k)] = v
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var pairs [][2][]byte
		for _, k := range keys {
			pairs = append(pairs, [2][]byte{[]byte(k), m[k]})
		}
		tr := buildTree(t, pageSize, pairs)
		for _, k := range keys {
			v, found, err := tr.Get([]byte(k))
			if err != nil || !found || !bytes.Equal(v, m[k]) {
				t.Logf("Get(%q) = %v %v %v", k, v, found, err)
				return false
			}
		}
		// Full scan returns exactly the sorted pairs.
		it := tr.Iterator(nil)
		i := 0
		for it.Next() {
			if i >= len(keys) || string(it.Key()) != keys[i] || !bytes.Equal(it.Value(), m[keys[i]]) {
				t.Logf("scan mismatch at %d", i)
				return false
			}
			i++
		}
		return it.Err() == nil && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// longValue is the length of BenchmarkGet's long values: a 20-page
// extent at 4 KiB pages, about a long posting list.
const longValue = 20 * 4096

// BenchmarkGet looks keys up with short (inline) and long (extent)
// values on the pread and mmap backends. A mapped extent is borrowed,
// so long/mmap must allocate nothing; pread copies every value once.
func BenchmarkGet(b *testing.B) {
	for _, c := range []struct {
		name      string
		keys, len int
	}{{"short", 20000, 0}, {"long", 16, longValue}} {
		var pairs [][2][]byte
		for i := 0; i < c.keys; i++ {
			v := []byte(fmt.Sprintf("value-%d", i))
			if c.len > 0 {
				v = bytes.Repeat([]byte{byte(i)}, c.len)
			}
			pairs = append(pairs, [2][]byte{[]byte(fmt.Sprintf("k%08d", i)), v})
		}
		path := buildFile(b, 4096, pairs)
		for _, backend := range []string{"pread", "mmap"} {
			b.Run(c.name+"/"+backend, func(b *testing.B) {
				tr := openTree(b, path, Options{Mmap: backend == "mmap"})
				tr.Get(pairs[0][0]) // warm the pread scratch-page pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, found, err := tr.Get(pairs[i%len(pairs)][0]); !found || err != nil {
						b.Fatal("missing key")
					}
				}
			})
		}
	}
}
