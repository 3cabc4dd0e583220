package core

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/postings"
	"repro/internal/subtree"
)

// keyCount is one (key, live posting count) pair collected from a key
// iteration, for whole-surface comparison across backends.
type keyCount struct {
	Key   subtree.Key
	Count int
}

// collectKeys drains the handle's key iteration into a slice.
func collectKeys(t *testing.T, l *Live) []keyCount {
	t.Helper()
	var out []keyCount
	if err := l.Keys("", func(k subtree.Key, count int) bool {
		out = append(out, keyCount{Key: k, Count: count})
		return true
	}); err != nil {
		t.Fatalf("Keys: %v", err)
	}
	return out
}

// sameMatches compares two match slices treating nil and empty as
// equal (Search and a drained SearchStream differ in which they
// produce for a matchless query).
func sameMatches(a, b []Match) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// drainStream collects a pending result's matches and returns them with
// the finalized count.
func drainStream(t *testing.T, r *Result) ([]Match, int) {
	t.Helper()
	var ms []Match
	for m, err := range r.All() {
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		ms = append(ms, m)
	}
	return ms, r.Count
}

// TestQuickBackendEquivalence is the mmap/pread equivalence property:
// the two read backends serve the same bytes, so on random corpora —
// built, appended to, and tombstoned through the live machinery — a
// handle opened with MmapAuto and one with MmapOff must agree exactly
// on every read surface: materialized search, count-only and limited
// search, the streaming producer, batched evaluation, and key
// iteration. The work counters must agree too (PostingFetches,
// JoinRows): the backend is a storage choice, not a plan choice.
func TestQuickBackendEquivalence(t *testing.T) {
	codings := []postings.Coding{postings.RootSplit, postings.SubtreeInterval, postings.FilterBased}
	round := 0
	ctx := context.Background()
	f := func(seed int64, mssRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		coding := codings[round%len(codings)]
		round++
		mss := int(mssRaw%3) + 1
		trees := randomForest(rng, 45)

		dir := filepath.Join(t.TempDir(), "eq")
		if _, err := BuildSharded(dir, trees[:30], Options{MSS: mss, Coding: coding}, 2); err != nil {
			t.Logf("build: %v", err)
			return false
		}
		// Mutate through one writer so both read handles see the same
		// manifest: an appended segment plus tombstones.
		w, err := OpenLive(dir, OpenOptions{})
		if err != nil {
			t.Logf("open writer: %v", err)
			return false
		}
		if _, err := w.Append(ctx, trees[30:], 1); err != nil {
			w.Close()
			t.Logf("append: %v", err)
			return false
		}
		if _, err := w.Delete(ctx, []int{0, 3, 7, 31}); err != nil {
			w.Close()
			t.Logf("delete: %v", err)
			return false
		}
		if err := w.Close(); err != nil {
			t.Logf("close writer: %v", err)
			return false
		}

		mapped, err := OpenLive(dir, OpenOptions{Mmap: MmapAuto})
		if err != nil {
			t.Logf("open mmap: %v", err)
			return false
		}
		defer mapped.Close()
		plain, err := OpenLive(dir, OpenOptions{Mmap: MmapOff})
		if err != nil {
			t.Logf("open pread: %v", err)
			return false
		}
		defer plain.Close()
		if runtime.GOOS == "linux" && mapped.Counters().MmapLeaves == 0 {
			t.Log("MmapAuto handle reports no mapped leaves on linux")
			return false
		}
		if n := plain.Counters().MmapLeaves; n != 0 {
			t.Logf("MmapOff handle reports %d mapped leaves", n)
			return false
		}

		var srcs []string
		for i := 0; i < 6; i++ {
			srcs = append(srcs, randomQuery(rng).Canonical())
		}
		for _, src := range srcs {
			a, err := mapped.Search(ctx, src, SearchOpts{})
			if err != nil {
				t.Logf("mmap search %s: %v", src, err)
				return false
			}
			b, err := plain.Search(ctx, src, SearchOpts{})
			if err != nil {
				t.Logf("pread search %s: %v", src, err)
				return false
			}
			if !sameMatches(a.Matches, b.Matches) || a.Count != b.Count {
				t.Logf("query %s: mmap %d matches, pread %d", src, a.Count, b.Count)
				return false
			}
			if a.Stats.PostingFetches != b.Stats.PostingFetches || a.Stats.JoinRows != b.Stats.JoinRows {
				t.Logf("query %s: work diverged: mmap fetches=%d rows=%d, pread fetches=%d rows=%d",
					src, a.Stats.PostingFetches, a.Stats.JoinRows, b.Stats.PostingFetches, b.Stats.JoinRows)
				return false
			}

			ac, err := mapped.Search(ctx, src, SearchOpts{CountOnly: true})
			if err != nil {
				return false
			}
			bc, err := plain.Search(ctx, src, SearchOpts{CountOnly: true})
			if err != nil {
				return false
			}
			if ac.Count != bc.Count || ac.Count != a.Count {
				t.Logf("query %s: count-only diverged: mmap %d, pread %d, full %d", src, ac.Count, bc.Count, a.Count)
				return false
			}

			al, err := mapped.Search(ctx, src, SearchOpts{Limit: 3, Offset: 1})
			if err != nil {
				return false
			}
			bl, err := plain.Search(ctx, src, SearchOpts{Limit: 3, Offset: 1})
			if err != nil {
				return false
			}
			if !sameMatches(al.Matches, bl.Matches) {
				t.Logf("query %s: limited windows diverged", src)
				return false
			}

			as, err := mapped.SearchStream(ctx, src, SearchOpts{})
			if err != nil {
				return false
			}
			bs, err := plain.SearchStream(ctx, src, SearchOpts{})
			if err != nil {
				return false
			}
			ams, an := drainStream(t, as)
			bms, bn := drainStream(t, bs)
			if !sameMatches(ams, bms) || an != bn {
				t.Logf("query %s: streams diverged (%d vs %d matches)", src, an, bn)
				return false
			}
			if !sameMatches(ams, a.Matches) {
				t.Logf("query %s: stream disagrees with Search", src)
				return false
			}
		}

		abatch, err := searchBatch(mapped, srcs)
		if err != nil {
			t.Logf("mmap batch: %v", err)
			return false
		}
		bbatch, err := searchBatch(plain, srcs)
		if err != nil {
			t.Logf("pread batch: %v", err)
			return false
		}
		if !reflect.DeepEqual(abatch, bbatch) {
			t.Log("batched results diverged")
			return false
		}

		if ak, bk := collectKeys(t, mapped), collectKeys(t, plain); !reflect.DeepEqual(ak, bk) {
			t.Logf("key iterations diverged (%d vs %d keys)", len(ak), len(bk))
			return false
		}

		// Identical operation sequences must have issued identical
		// physical fetch totals — the counter the bench gate guards.
		if af, bf := mapped.Counters().PostingFetches, plain.Counters().PostingFetches; af != bf {
			t.Logf("cumulative fetches diverged: mmap %d, pread %d", af, bf)
			return false
		}

		// Concurrent readers on both backends (the -race half of the
		// property): every goroutine must see the same matches.
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				h := mapped
				if g%2 == 1 {
					h = plain
				}
				r, err := h.Search(ctx, srcs[g%len(srcs)], SearchOpts{})
				if err != nil {
					errs[g] = err
					return
				}
				want, err := searchText(plain, srcs[g%len(srcs)])
				if err != nil {
					errs[g] = err
					return
				}
				if len(r.Matches) != len(want) {
					errs[g] = errDiverged
				}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Logf("concurrent read: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// errDiverged flags a concurrent reader that saw a different result.
var errDiverged = errors.New("concurrent reader diverged")
