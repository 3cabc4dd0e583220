package pager

import (
	"encoding/binary"
	"path/filepath"
	"sync"
	"testing"
)

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

func readPage(t *testing.T, f *File, id uint32) {
	t.Helper()
	buf := make([]byte, f.PageSize())
	if err := f.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(buf); got != id {
		t.Fatalf("page %d holds stamp %d", id, got)
	}
}

func TestCacheHits(t *testing.T) {
	path := writePages(t, 16)
	f, err := OpenCached(path, 16*128) // room for all pages
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for pass := 0; pass < 3; pass++ {
		for id := uint32(1); id <= 16; id++ {
			readPage(t, f, id)
		}
	}
	st := f.CacheStats()
	if st.Misses != 16 {
		t.Errorf("misses = %d, want 16 (one per page)", st.Misses)
	}
	if st.Hits != 32 {
		t.Errorf("hits = %d, want 32 (two warm passes)", st.Hits)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", st.Evictions)
	}
}

func TestCacheEviction(t *testing.T) {
	const pages = 64
	path := writePages(t, pages)
	// Capacity of 8 pages = one page per cache shard; cycling through
	// 64 pages (8 per shard) must evict continuously.
	f, err := OpenCached(path, 8*128)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for pass := 0; pass < 2; pass++ {
		for id := uint32(1); id <= pages; id++ {
			readPage(t, f, id)
		}
	}
	st := f.CacheStats()
	if st.Evictions == 0 {
		t.Error("no evictions despite working set 8x cache capacity")
	}
	if st.Hits+st.Misses != 2*pages {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 2*pages)
	}
	// LRU within a shard: after cycling, re-reading the most recent
	// page of a shard must hit.
	before := f.CacheStats().Hits
	readPage(t, f, pages) // just read, still resident
	if f.CacheStats().Hits != before+1 {
		t.Error("most recently used page was evicted")
	}
}

// cachedPages counts the entries currently resident across all shards.
func cachedPages(c *pageCache) int {
	n := 0
	for i := range c.shards {
		if c.shards[i].lru != nil {
			n += c.shards[i].lru.Len()
		}
	}
	return n
}

// TestCacheSmallBudgetHonored locks the budget-accounting fix: a cache
// configured below cacheShards pages used to round every shard up to
// one page and silently hold up to cacheShards pages; now small
// budgets clamp the shard count instead.
// TestCacheBudgetSelectsCachedBackend: a positive cache budget is a
// request for the cached pread backend, mapping requested or not. It
// used to be silently dropped whenever the mapping succeeded, so every
// documented cache configuration (left at the mmap default) ran mapped.
func TestCacheBudgetSelectsCachedBackend(t *testing.T) {
	path := writePages(t, 4)
	for _, mmap := range []bool{false, true} {
		f, err := OpenWith(path, OpenOptions{CacheBytes: 4 * 128, Mmap: mmap})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for id := uint32(1); id <= 4; id++ {
				readPage(t, f, id)
			}
		}
		if st := f.CacheStats(); f.Mapped() || !f.Stable() || st.Misses != 4 || st.Hits != 4 {
			t.Errorf("mmap=%v: mapped=%v stable=%v cache %+v, want the cached backend with 4 misses then 4 hits", mmap, f.Mapped(), f.Stable(), st)
		}
		f.Close()
	}
	f, err := OpenWith(path, OpenOptions{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.CacheStats() != (CacheStats{}) {
		t.Errorf("no budget: cache %+v", f.CacheStats())
	}
}

func TestCacheSmallBudgetHonored(t *testing.T) {
	for _, budget := range []int{1, 2, 3, 7} {
		c := newPageCache(budget)
		for id := uint32(1); id <= 64; id++ {
			c.put(id, []byte{byte(id)})
		}
		if live := cachedPages(c); live > budget {
			t.Errorf("budget %d: cache holds %d pages", budget, live)
		}
		if ev := c.stats().Evictions; ev < uint64(64-budget) {
			t.Errorf("budget %d: only %d evictions over 64 inserts", budget, ev)
		}
	}
}

// TestCacheBudgetRemainderDistributed locks the other half of the same
// fix: a budget that does not divide by the shard count keeps its
// remainder (12 pages used to truncate to 8) and never exceeds the
// configured total.
func TestCacheBudgetRemainderDistributed(t *testing.T) {
	const budget = 12
	c := newPageCache(budget)
	total := 0
	for i := 0; i < int(c.nshards); i++ {
		total += c.shards[i].cap
	}
	if total != budget {
		t.Fatalf("shard capacities sum to %d, want the configured %d", total, budget)
	}
	for id := uint32(1); id <= 256; id++ {
		c.put(id, []byte{byte(id)})
	}
	if live := cachedPages(c); live != budget {
		t.Errorf("cache holds %d pages after saturation, want %d", live, budget)
	}
}

// TestCacheSmallBudgetEndToEnd drives the fix through the file read
// path: with room for 2 pages, cycling through 16 must keep at most 2
// resident.
func TestCacheSmallBudgetEndToEnd(t *testing.T) {
	path := writePages(t, 16)
	f, err := OpenCached(path, 2*128)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for pass := 0; pass < 2; pass++ {
		for id := uint32(1); id <= 16; id++ {
			readPage(t, f, id)
		}
	}
	if live := cachedPages(f.cache); live > 2 {
		t.Errorf("cache holds %d pages, budget is 2", live)
	}
	if st := f.CacheStats(); st.Evictions == 0 {
		t.Error("no evictions despite working set 8x the budget")
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	path := writePages(t, 4)
	f, err := OpenCached(path, 0) // CacheSize 0 = the paper's no-cache setup
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for pass := 0; pass < 2; pass++ {
		for id := uint32(1); id <= 4; id++ {
			readPage(t, f, id)
		}
	}
	if st := f.CacheStats(); st != (CacheStats{}) {
		t.Errorf("stats %+v on an uncached file", st)
	}
}

// TestCacheConcurrentReads drives the cached read path from many
// goroutines; meaningful under -race.
func TestCacheConcurrentReads(t *testing.T) {
	const pages = 32
	path := writePages(t, pages)
	f, err := OpenCached(path, 16*128)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, f.PageSize())
			for i := 0; i < 200; i++ {
				id := uint32(1 + (g*7+i)%pages)
				if err := f.Read(id, buf); err != nil {
					t.Error(err)
					return
				}
				if got := binary.LittleEndian.Uint32(buf); got != id {
					t.Errorf("page %d holds stamp %d", id, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := f.CacheStats()
	if st.Hits == 0 {
		t.Error("no cache hits under concurrent re-reads")
	}
}
