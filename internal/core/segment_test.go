package core

import (
	"context"
	"errors"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/lingtree"
	"repro/internal/postings"
)

// openLive builds an index over trees (sharded when shards > 1) and
// opens it as a Live handle.
func openLive(t *testing.T, trees []*lingtree.Tree, shards int, opts OpenOptions) *Live {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees, Options{MSS: 3, Coding: postings.RootSplit}, shards); err != nil {
		t.Fatal(err)
	}
	return openDir(t, dir, opts)
}

// TestAppendPersistsAcrossReopen locks the manifest format: after
// appends, a fresh OpenLive of the directory serves the
// whole corpus, and the root meta declares the segmented format.
func TestAppendPersistsAcrossReopen(t *testing.T) {
	trees := shardCorpus(300)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees[:200], Options{MSS: 3, Coding: postings.RootSplit}, 2); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(context.Background(), trees[200:], 1); err != nil {
		t.Fatal(err)
	}
	want, err := searchText(l, "NP(DT)(NN)")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	meta, err := readMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.FormatVersion != FormatSegmented || len(meta.Segments) != 2 || meta.Generation != 2 {
		t.Fatalf("manifest after append: format %d, %d segments, generation %d; want 3/2/2",
			meta.FormatVersion, len(meta.Segments), meta.Generation)
	}
	if meta.NumTrees != 300 {
		t.Fatalf("manifest NumTrees = %d, want 300", meta.NumTrees)
	}

	got, err := searchText(openDir(t, dir, OpenOptions{}), "NP(DT)(NN)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened index returned %d matches, want %d", len(got), len(want))
	}
}

// TestReloadPicksUpExternalSegment drives the two-process flow: one
// handle appends (the external builder), another serving handle
// reloads and sees the new trees with no reopen.
func TestReloadPicksUpExternalSegment(t *testing.T) {
	trees := shardCorpus(400)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees[:300], Options{MSS: 3, Coding: postings.RootSplit}, 1); err != nil {
		t.Fatal(err)
	}
	serving, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer serving.Close()
	writer, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Append(context.Background(), trees[300:], 1); err != nil {
		t.Fatal(err)
	}
	want, err := searchText(writer, "S(NP)(VP)")
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	if serving.Meta().NumTrees != 300 {
		t.Fatalf("serving handle sees %d trees before reload", serving.Meta().NumTrees)
	}
	changed, err := serving.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("reload reported no change despite a new on-disk generation")
	}
	if serving.Meta().NumTrees != 400 || serving.Segments() != 2 {
		t.Fatalf("after reload: %d trees in %d segments, want 400 in 2",
			serving.Meta().NumTrees, serving.Segments())
	}
	got, err := searchText(serving, "S(NP)(VP)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reloaded handle and writer disagree on matches")
	}
	// A second reload with nothing new is a no-op.
	changed, err = serving.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("reload reported a change with an unchanged manifest")
	}
}

// TestQueryPinnedAcrossAppend asserts the epoch contract: a pending
// stream started before an Append evaluates on its pinned segment set
// (no new-tree matches can appear mid-iteration), while a search
// issued after the Append sees the new trees immediately.
func TestQueryPinnedAcrossAppend(t *testing.T) {
	trees := shardCorpus(400)
	l := openLive(t, trees[:200], 2, OpenOptions{})
	ctx := context.Background()
	const q = "NP(DT)(NN)"

	res, err := l.SearchStream(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	appended := false
	var streamed []Match
	for m, err := range res.All() {
		if err != nil {
			t.Fatalf("pinned stream failed: %v", err)
		}
		if !appended {
			if _, err := l.Append(ctx, trees[200:], 1); err != nil {
				t.Fatalf("append during stream: %v", err)
			}
			appended = true
		}
		streamed = append(streamed, m)
	}
	for _, m := range streamed {
		if m.TID >= 200 {
			t.Fatalf("pinned stream yielded tid %d from the appended segment", m.TID)
		}
	}

	after, err := l.Search(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	sawNew := false
	for _, m := range after.Matches {
		if m.TID >= 200 {
			sawNew = true
			break
		}
	}
	if !sawNew {
		t.Fatal("post-append search returned no matches from the new trees")
	}
	if len(after.Matches) <= len(streamed) {
		t.Fatalf("post-append search found %d matches, pinned stream %d; want strictly more",
			len(after.Matches), len(streamed))
	}
}

// TestCloseWaitsForPinnedSearch is the Close-vs-search regression test
// (run under -race in CI): Close while a stream iterates must neither
// crash nor fail the stream — the iteration completes on its pinned
// segment set and Close returns only after it drains; operations after
// Close fail with ErrClosed.
func TestCloseWaitsForPinnedSearch(t *testing.T) {
	trees := shardCorpus(300)
	l := openLive(t, trees, 2, OpenOptions{})
	ctx := context.Background()
	const q = "NP(DT)(NN)"
	want, err := searchText(l, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("vacuous fixture")
	}

	res, err := l.SearchStream(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	closing := make(chan struct{})
	closed := make(chan error, 1)
	var got []Match
	for m, err := range res.All() {
		if err != nil {
			t.Fatalf("stream failed mid-close: %v", err)
		}
		if got == nil {
			// First match in hand: close concurrently while the stream is
			// mid-evaluation.
			go func() {
				close(closing)
				closed <- l.Close()
			}()
			<-closing
		}
		got = append(got, m)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream under concurrent Close yielded %d matches, want %d", len(got), len(want))
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}

	if _, err := l.Search(ctx, q, SearchOpts{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("search after close: %v, want ErrClosed", err)
	}
	if _, err := l.Append(ctx, trees[:1], 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestConcurrentSearchAppendClose hammers the epoch machinery from
// many goroutines (meaningful under -race): searches must never fail
// with anything but ErrClosed, and every successful result must be a
// consistent snapshot (match count from one of the published corpus
// states).
func TestConcurrentSearchAppendClose(t *testing.T) {
	trees := shardCorpus(600)
	l := openLive(t, trees[:300], 2, OpenOptions{})
	ctx := context.Background()
	const q = "NP(DT)(NN)"

	full := openLive(t, trees, 1, OpenOptions{})
	allMatches, err := searchText(full, q)
	if err != nil {
		t.Fatal(err)
	}
	// The appended corpus is a prefix-extension, so every legal snapshot
	// is a tid-prefix of the full match list.
	countAt := func(cut uint32) int {
		n := 0
		for _, m := range allMatches {
			if m.TID < cut {
				n++
			}
		}
		return n
	}
	legal := map[int]bool{countAt(300): true, countAt(450): true, countAt(600): true}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := l.Search(ctx, q, SearchOpts{})
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("concurrent search: %v", err)
					return
				}
				if !legal[res.Count] {
					t.Errorf("search saw %d matches, not any published state", res.Count)
					return
				}
			}
		}()
	}
	if _, err := l.Append(ctx, trees[300:450], 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ctx, trees[450:600], 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendRejectsEmptyAndClosed covers the Append error surface.
func TestAppendRejectsEmptyAndClosed(t *testing.T) {
	trees := shardCorpus(50)
	l := openLive(t, trees, 1, OpenOptions{})
	if _, err := l.Append(context.Background(), nil, 1); err == nil {
		t.Fatal("append of zero trees succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Append(ctx, trees[:1], 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("append under cancelled ctx: %v", err)
	}
}

// TestAppendRetryAfterFailureKeepsData is the promotion-retry
// regression test: an Append that promotes the legacy root and then
// fails in a later step (here: an out-of-range shard count rejected by
// BuildSharded) must leave the promoted index fully intact, and a
// retried Append must succeed without re-running the promotion — the
// original bug re-promoted and deleted the already-moved payload.
func TestAppendRetryAfterFailureKeepsData(t *testing.T) {
	trees := shardCorpus(200)
	l := openLive(t, trees[:150], 1, OpenOptions{})
	ctx := context.Background()
	const q = "NP(DT)(NN)"
	before, err := searchText(l, q)
	if err != nil {
		t.Fatal(err)
	}

	// Fails after promotion: MaxShards+1 is rejected by the segment build.
	if _, err := l.Append(ctx, trees[150:], MaxShards+1); err == nil {
		t.Fatal("append with an out-of-range shard count succeeded")
	}
	if l.Generation() != 1 || l.Segments() != 1 {
		t.Fatalf("after failed append: generation %d, %d segments; want the promoted state 1/1", l.Generation(), l.Segments())
	}
	// The promoted payload must still be on disk and servable.
	if _, err := os.Stat(filepath.Join(l.dir, segDirName(1), indexFileName)); err != nil {
		t.Fatalf("promoted index payload missing after failed append: %v", err)
	}
	mid, err := searchText(l, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mid, before) {
		t.Fatal("failed append changed query results")
	}

	// The retry must succeed and serve the union.
	if _, err := l.Append(ctx, trees[150:], 1); err != nil {
		t.Fatalf("retried append: %v", err)
	}
	if l.Meta().NumTrees != 200 {
		t.Fatalf("after retry: %d trees, want 200", l.Meta().NumTrees)
	}
	full := openLive(t, trees, 1, OpenOptions{})
	want, err := searchText(full, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := searchText(l, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retried append serves %d matches, full rebuild %d", len(got), len(want))
	}

	// A reopened handle agrees (disk state is consistent too).
	reopened, err := OpenLive(l.dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, err = searchText(reopened, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reopened index disagrees after failed-then-retried append")
	}
}

// TestOpenRejectsEmptyManifest locks the corrupt-manifest error path:
// a format-3 meta.json listing no segments must fail to open (and to
// reload) with an error, not panic.
func TestOpenRejectsEmptyManifest(t *testing.T) {
	dir := t.TempDir()
	man := &Meta{FormatVersion: FormatSegmented, Generation: 1, MSS: 3, Coding: postings.RootSplit}
	if err := writeMeta(dir, man); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLive(dir, OpenOptions{}); err == nil {
		t.Fatal("OpenLive accepted a manifest with no segments")
	}

	// Reload onto an emptied manifest must error, not panic or serve
	// nothing.
	trees := shardCorpus(100)
	l := openLive(t, trees, 1, OpenOptions{})
	if _, err := l.Append(context.Background(), trees[:10], 1); err != nil {
		t.Fatal(err)
	}
	man.Generation = 99
	if err := writeMeta(l.dir, man); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Reload(); err == nil {
		t.Fatal("Reload accepted a manifest with no segments")
	}
}

// TestCountersMonotonicAcrossRetirement locks the cumulative-counters
// contract: a segment delisted by Reload keeps contributing its
// posting fetches while a pinned query holds it open, and its final
// count folds into the retired total when it closes — the reported
// total never decreases.
func TestCountersMonotonicAcrossRetirement(t *testing.T) {
	trees := shardCorpus(300)
	l := openLive(t, trees[:200], 1, OpenOptions{})
	ctx := context.Background()
	const q = "NP(DT)(NN)"
	if _, err := l.Append(ctx, trees[200:], 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Search(ctx, q, SearchOpts{}); err != nil {
		t.Fatal(err)
	}
	base := l.Counters().PostingFetches
	if base == 0 {
		t.Fatal("no fetches recorded")
	}

	// Pin the current epoch with a pending stream, then delist the
	// second segment via an externally rewritten manifest.
	res, err := l.SearchStream(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	next, stop := iter.Pull2(res.All())
	if _, _, ok := next(); !ok {
		t.Fatal("stream yielded nothing")
	}

	cur := l.cur.Load()
	man := aggregateMeta(cur.segs[:1])
	man.FormatVersion = FormatSegmented
	man.Generation = cur.gen + 1
	man.Segments = []string{cur.segs[0].name}
	man.Shards = 0
	if err := writeMeta(l.dir, &man); err != nil {
		t.Fatal(err)
	}
	changed, err := l.Reload()
	if err != nil {
		t.Fatal(err)
	}
	if !changed || l.Segments() != 1 {
		t.Fatalf("reload: changed=%v segments=%d, want delisting down to 1", changed, l.Segments())
	}
	if got := l.Counters().PostingFetches; got < base {
		t.Fatalf("counters dropped after delisting: %d < %d", got, base)
	}
	// Drain the pinned stream so the delisted segment closes, then the
	// total must still include its fetches.
	for {
		if _, _, ok := next(); !ok {
			break
		}
	}
	stop()
	if got := l.Counters().PostingFetches; got < base {
		t.Fatalf("counters dropped after retirement: %d < %d", got, base)
	}
}
