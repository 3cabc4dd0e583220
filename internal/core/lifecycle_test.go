package core

import (
	"context"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lingtree"
	"repro/internal/postings"
	"repro/internal/subtree"
)

// deleteTids picks every step-th tid of an n-tree corpus — a delete set
// that spans every segment of the layouts the lifecycle tests build.
func deleteTids(n, step int) []int {
	var tids []int
	for tid := 0; tid < n; tid += step {
		tids = append(tids, tid)
	}
	return tids
}

// TestDeleteHidesTreesEverywhere covers the tombstone half of the
// lifecycle on a multi-segment index: a deleted tree stops matching on
// every read path — search, count-only, batch, stream, key lookup, key
// iteration and Tree — immediately after Delete returns, survivors are
// untouched, a repeated delete is an idempotent no-op, and the
// tombstones survive a reopen of the directory.
func TestDeleteHidesTreesEverywhere(t *testing.T) {
	trees := shardCorpus(400)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees[:300], Options{MSS: 3, Coding: postings.RootSplit}, 2); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	if _, err := l.Append(ctx, trees[300:], 1); err != nil {
		t.Fatal(err)
	}
	// One extra tree with a vocabulary all its own, so its keys must
	// vanish from the key paths when it dies.
	rare, err := lingtree.ParseBracketed(400, "(S (NP (NN zyzzyva)))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ctx, []*lingtree.Tree{rare}, 1); err != nil {
		t.Fatal(err)
	}
	if n, err := l.LookupKey(subtree.Key("1:zyzzyva")); err != nil || n == 0 {
		t.Fatalf("LookupKey(zyzzyva) = %d, %v before delete; want > 0", n, err)
	}

	const q = "S(//NN)"
	before, err := searchText(l, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatalf("%q matches nothing; pick a better fixture query", q)
	}
	// Victims: one matching tree from the base segment, one from the
	// appended segment, and the rare tree.
	victims := map[uint32]bool{before[0].TID: true, 400: true}
	for _, m := range before {
		if m.TID >= 300 && m.TID < 400 {
			victims[m.TID] = true
			break
		}
	}
	var del []int
	for tid := range victims {
		del = append(del, int(tid))
	}
	newly, err := l.Delete(ctx, del)
	if err != nil {
		t.Fatal(err)
	}
	if newly != len(del) {
		t.Fatalf("Delete reported %d newly tombstoned, want %d", newly, len(del))
	}
	gen := l.Generation()

	want := before[:0:0]
	for _, m := range before {
		if !victims[m.TID] {
			want = append(want, m)
		}
	}
	got, err := searchText(l, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after delete, %q returned %d matches, want %d survivors", q, len(got), len(want))
	}
	res, err := l.Search(ctx, q, SearchOpts{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != len(want) {
		t.Fatalf("count-only after delete = %d, want %d", res.Count, len(want))
	}
	batch, err := l.SearchBatch(ctx, []string{q}, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].Count != len(want) {
		t.Fatalf("batch count after delete = %d, want %d", batch[0].Count, len(want))
	}
	stream, err := l.SearchStream(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Match
	for m, err := range stream.All() {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, m)
	}
	if !reflect.DeepEqual(streamed, want) {
		t.Fatalf("stream after delete returned %d matches, want %d", len(streamed), len(want))
	}
	for tid := range victims {
		if _, err := l.Tree(int(tid)); err == nil {
			t.Fatalf("Tree(%d) succeeded on a deleted tree", tid)
		}
	}
	if _, err := l.Tree(int(want[0].TID)); err != nil {
		t.Fatalf("Tree on a surviving match: %v", err)
	}
	// The rare tree's private vocabulary is gone from the key paths.
	if n, err := l.LookupKey(subtree.Key("1:zyzzyva")); err != nil || n != 0 {
		t.Fatalf("LookupKey(zyzzyva) = %d, %v after delete; want 0", n, err)
	}
	if err := l.Keys(subtree.Key(""), func(k subtree.Key, count int) bool {
		if k == subtree.Key("1:zyzzyva") {
			t.Fatalf("key iteration still yields the deleted tree's key (count %d)", count)
		}
		if count == 0 {
			t.Fatalf("key iteration yielded %q with zero live postings", k)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	// Idempotence: re-deleting the victims changes nothing and does not
	// republish.
	newly, err = l.Delete(ctx, del)
	if err != nil {
		t.Fatal(err)
	}
	if newly != 0 {
		t.Fatalf("repeated delete reported %d newly tombstoned, want 0", newly)
	}
	if l.Generation() != gen {
		t.Fatalf("repeated delete bumped generation %d -> %d", gen, l.Generation())
	}
	if c := l.Counters(); c.TombstonedTrees != len(del) || c.LiveTrees != 401-len(del) {
		t.Fatalf("counters report %d live / %d tombstoned, want %d / %d",
			c.LiveTrees, c.TombstonedTrees, 401-len(del), len(del))
	}

	// Persistence: a fresh open of the directory serves the same
	// tombstoned view.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, err = searchText(l2, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen, %q returned %d matches, want %d", q, len(got), len(want))
	}
	if c := l2.Counters(); c.TombstonedTrees != len(del) {
		t.Fatalf("after reopen, counters report %d tombstoned, want %d", c.TombstonedTrees, len(del))
	}
}

// TestDeletePromotesLegacyRoot mirrors the first-append promotion: a
// delete against a never-segmented root moves the payload into
// seg-000001 and publishes a tombstoned manifest, without touching the
// trees themselves.
func TestDeletePromotesLegacyRoot(t *testing.T) {
	l := openLive(t, shardCorpus(120), 1, OpenOptions{})
	if l.Generation() != 0 {
		t.Fatalf("fresh build has generation %d, want 0", l.Generation())
	}
	n, err := l.Delete(context.Background(), []int{7})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Delete = %d newly tombstoned, want 1", n)
	}
	if l.Generation() != 2 {
		t.Fatalf("generation %d after promoting delete, want 2 (promotion + delete)", l.Generation())
	}
	if _, err := l.Tree(7); err == nil {
		t.Fatal("Tree(7) succeeded after delete")
	}
	if c := l.Counters(); c.LiveTrees != 119 || c.TombstonedTrees != 1 {
		t.Fatalf("counters report %d live / %d tombstoned, want 119 / 1", c.LiveTrees, c.TombstonedTrees)
	}
}

// TestDeleteRejectsBadTids locks the fail-before-publish contract: an
// out-of-range tid fails the whole delete without tombstoning anything.
func TestDeleteRejectsBadTids(t *testing.T) {
	l := openLive(t, shardCorpus(50), 1, OpenOptions{})
	ctx := context.Background()
	for _, bad := range [][]int{{-1}, {50}, {3, 999}} {
		if _, err := l.Delete(ctx, bad); err == nil {
			t.Fatalf("Delete(%v) succeeded on out-of-range tids", bad)
		}
	}
	if _, err := l.Delete(ctx, nil); err == nil {
		t.Fatal("Delete(nil) succeeded")
	}
	if c := l.Counters(); c.TombstonedTrees != 0 {
		t.Fatalf("failed deletes tombstoned %d trees", c.TombstonedTrees)
	}
}

// TestCompactEquivalentToRebuild is the compaction property test: after
// appends and deletes, Compact must produce an index that behaves
// exactly like a from-scratch build over the surviving trees — the same
// matches, the same per-query posting fetches and join rows (the
// compacted segment reuses the ordinary build path, so even the
// physical access counts agree), and the same key statistics.
func TestCompactEquivalentToRebuild(t *testing.T) {
	trees := shardCorpus(900)
	l := openLive(t, trees[:500], 2, OpenOptions{})
	ctx := context.Background()
	if _, err := l.Append(ctx, trees[500:700], 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(ctx, trees[700:], 2); err != nil {
		t.Fatal(err)
	}
	del := deleteTids(900, 7)
	if _, err := l.Delete(ctx, del); err != nil {
		t.Fatal(err)
	}

	// The reference: a from-scratch build over the survivors, renumbered
	// 0..n-1 in corpus order — the tids Compact promises to assign.
	deleted := make(map[int]bool, len(del))
	for _, tid := range del {
		deleted[tid] = true
	}
	var survivors []*lingtree.Tree
	for _, tr := range trees {
		if deleted[tr.TID] {
			continue
		}
		ct := *tr
		ct.TID = len(survivors)
		survivors = append(survivors, &ct)
	}
	rebuilt := openLive(t, survivors, 1, OpenOptions{})

	compacted, built, err := l.Compact(ctx, CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !compacted || built == nil {
		t.Fatal("Compact reported nothing to do on a 3-segment index with tombstones")
	}
	if l.Segments() != 1 {
		t.Fatalf("%d segments after compaction, want 1", l.Segments())
	}
	c := l.Counters()
	if c.TombstonedTrees != 0 || c.LiveTrees != len(survivors) || c.Segments != 1 {
		t.Fatalf("counters after compaction: %d live / %d tombstoned / %d segments, want %d / 0 / 1",
			c.LiveTrees, c.TombstonedTrees, c.Segments, len(survivors))
	}
	if got := l.Meta().NumTrees; got != len(survivors) {
		t.Fatalf("NumTrees = %d after compaction, want %d", got, len(survivors))
	}

	for _, q := range shardQueries {
		want, err := rebuilt.Search(ctx, q, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.Search(ctx, q, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("%q: compacted index returned %d matches, rebuild %d", q, len(got.Matches), len(want.Matches))
		}
		if got.Stats.PostingFetches != want.Stats.PostingFetches {
			t.Fatalf("%q: compacted index issued %d posting fetches, rebuild %d",
				q, got.Stats.PostingFetches, want.Stats.PostingFetches)
		}
		if got.Stats.JoinRows != want.Stats.JoinRows {
			t.Fatalf("%q: compacted index did %d join rows, rebuild %d",
				q, got.Stats.JoinRows, want.Stats.JoinRows)
		}
	}

	// Key statistics and iteration agree key for key.
	type kc struct {
		k subtree.Key
		n int
	}
	collect := func(h *Live) []kc {
		var out []kc
		if err := h.Keys(subtree.Key(""), func(k subtree.Key, count int) bool {
			out = append(out, kc{k, count})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if wantKeys, gotKeys := collect(rebuilt), collect(l); !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("key iteration differs: compacted yields %d keys, rebuild %d", len(gotKeys), len(wantKeys))
	}

	// Trees round-trip under the new numbering.
	for _, tid := range []int{0, 1, len(survivors) / 2, len(survivors) - 1} {
		got, err := l.Tree(tid)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rebuilt.Tree(tid)
		if err != nil {
			t.Fatal(err)
		}
		if got.TID != want.TID || len(got.Nodes) != len(want.Nodes) {
			t.Fatalf("Tree(%d) differs after compaction", tid)
		}
	}

	// And the compacted state is what a fresh open serves.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactThresholds locks the gating contract: a single-segment
// index with no tombstones has nothing to compact, custom thresholds
// hold back small runs, and a never-segmented root always declines.
func TestCompactThresholds(t *testing.T) {
	ctx := context.Background()
	l := openLive(t, shardCorpus(100), 1, OpenOptions{})
	if compacted, _, err := l.Compact(ctx, CompactOptions{}); err != nil || compacted {
		t.Fatalf("Compact on a legacy root = (%v, %v), want (false, nil)", compacted, err)
	}
	if _, err := l.Append(ctx, shardCorpus(150)[100:], 1); err != nil {
		t.Fatal(err)
	}
	// Two segments, no tombstones: high thresholds decline, defaults run.
	if compacted, _, err := l.Compact(ctx, CompactOptions{MinSegments: 3, MinTombstones: 10}); err != nil || compacted {
		t.Fatalf("Compact under thresholds = (%v, %v), want (false, nil)", compacted, err)
	}
	if l.Segments() != 2 {
		t.Fatalf("declined compaction changed the segment count to %d", l.Segments())
	}
	compacted, _, err := l.Compact(ctx, CompactOptions{})
	if err != nil || !compacted {
		t.Fatalf("default-threshold Compact = (%v, %v), want (true, nil)", compacted, err)
	}
	// One tombstone is enough even at one segment.
	if _, err := l.Delete(ctx, []int{3}); err != nil {
		t.Fatal(err)
	}
	compacted, _, err = l.Compact(ctx, CompactOptions{})
	if err != nil || !compacted {
		t.Fatalf("Compact with one tombstone = (%v, %v), want (true, nil)", compacted, err)
	}
	if c := l.Counters(); c.LiveTrees != 149 || c.TombstonedTrees != 0 {
		t.Fatalf("counters after reclaim: %d live / %d tombstoned, want 149 / 0", c.LiveTrees, c.TombstonedTrees)
	}
	// Deleting everything and compacting is refused — the empty index is
	// not representable, so the caller must rebuild instead.
	if _, err := l.Delete(ctx, deleteTids(149, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Compact(ctx, CompactOptions{}); err == nil {
		t.Fatal("Compact succeeded with zero surviving trees")
	}
}

// TestDeleteVisibilityUnderConcurrentSearch runs searches concurrently
// with a stream of deletes (under -race, via `make test`): every search
// must succeed, and a search that starts after Delete(tid) returned
// must never match tid — tombstone publication is atomic and
// immediately visible, never partial.
func TestDeleteVisibilityUnderConcurrentSearch(t *testing.T) {
	l := openLive(t, shardCorpus(300), 2, OpenOptions{})
	ctx := context.Background()
	const q = "S(//NN)"

	// deletedBelow is the visibility frontier: every tid < the loaded
	// value had its Delete call return before the load.
	var deletedBelow atomic.Uint32
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				frontier := deletedBelow.Load()
				res, err := l.Search(ctx, q, SearchOpts{})
				if err != nil {
					t.Errorf("concurrent search: %v", err)
					return
				}
				for _, m := range res.Matches {
					if m.TID < frontier {
						t.Errorf("search started after Delete(%d) returned matched tid %d", frontier-1, m.TID)
						return
					}
				}
			}
		}()
	}
	for tid := 0; tid < 120; tid++ {
		if _, err := l.Delete(ctx, []int{tid}); err != nil {
			t.Fatalf("Delete(%d): %v", tid, err)
		}
		deletedBelow.Store(uint32(tid + 1))
	}
	close(done)
	wg.Wait()
}

// TestCompactionDuringPinnedStream proves retirement safety around the
// reclaim path: a stream pinned to the pre-compaction epoch keeps
// producing the old snapshot (old tids, tombstones applied) while and
// after Compact republishes, and the replaced segment directories are
// deleted only after that last reader drains.
func TestCompactionDuringPinnedStream(t *testing.T) {
	trees := shardCorpus(400)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees[:250], Options{MSS: 3, Coding: postings.RootSplit}, 1); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	if _, err := l.Append(ctx, trees[250:], 1); err != nil {
		t.Fatal(err)
	}
	const q = "S(NP)(VP)"
	if _, err := l.Delete(ctx, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	want, err := searchText(l, q)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := l.SearchStream(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	next, stop := iter.Pull2(stream.All())
	first, ferr, ok := next()
	if !ok || ferr != nil {
		t.Fatalf("first streamed match: ok=%v err=%v", ok, ferr)
	}
	oldDirs := []string{filepath.Join(dir, segDirName(1)), filepath.Join(dir, segDirName(2))}

	compacted, _, err := l.Compact(ctx, CompactOptions{})
	if err != nil || !compacted {
		t.Fatalf("Compact under a pinned stream = (%v, %v), want (true, nil)", compacted, err)
	}
	// The stream still holds the old epoch: its segments' directories
	// must survive the publish.
	for _, d := range oldDirs {
		if _, err := os.Stat(d); err != nil {
			t.Fatalf("retired segment %s removed while a stream still reads it: %v", d, err)
		}
	}

	got := []Match{first}
	for {
		m, serr, ok := next()
		if !ok {
			break
		}
		if serr != nil {
			t.Fatalf("streaming across compaction: %v", serr)
		}
		got = append(got, m)
	}
	stop()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned stream returned %d matches, want the %d pre-compaction matches", len(got), len(want))
	}

	// With the last reader drained the old directories are reclaimed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gone := true
		for _, d := range oldDirs {
			if _, err := os.Stat(d); !os.IsNotExist(err) {
				gone = false
			}
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retired segment directories still on disk after the last reader drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the post-compaction epoch serves the survivors renumbered.
	if got, want := l.Meta().NumTrees, 397; got != want {
		t.Fatalf("NumTrees = %d after compaction, want %d", got, want)
	}
	if _, err := l.Tree(396); err != nil {
		t.Fatalf("Tree(396) on the compacted index: %v", err)
	}
}

// TestCompactionDuringPinnedMmapStream is the mmap-backend shape of
// the retirement-safety proof above: a stream pinned mid-All() reads
// its matches as subslices of the retired segments' memory mappings,
// so those mappings (and the directories backing them) must survive
// Compact and a subsequent Reload until the last reader drains — an
// early munmap would fault, not just misread. The post-swap epoch must
// come up mapped as well.
func TestCompactionDuringPinnedMmapStream(t *testing.T) {
	trees := shardCorpus(400)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees[:250], Options{MSS: 3, Coding: postings.RootSplit}, 1); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLive(dir, OpenOptions{Mmap: MmapAuto})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mapped := l.Counters().MmapLeaves > 0
	if runtime.GOOS == "linux" && !mapped {
		t.Fatal("MmapAuto opened zero mapped leaves on linux")
	}
	if !mapped {
		t.Skip("mmap unavailable on this platform; the pread shape is TestCompactionDuringPinnedStream")
	}
	ctx := context.Background()
	if _, err := l.Append(ctx, trees[250:], 1); err != nil {
		t.Fatal(err)
	}
	const q = "S(NP)(VP)"
	if _, err := l.Delete(ctx, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	want, err := searchText(l, q)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := l.SearchStream(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	next, stop := iter.Pull2(stream.All())
	first, ferr, ok := next()
	if !ok || ferr != nil {
		t.Fatalf("first streamed match: ok=%v err=%v", ok, ferr)
	}
	oldDirs := []string{filepath.Join(dir, segDirName(1)), filepath.Join(dir, segDirName(2))}

	compacted, _, err := l.Compact(ctx, CompactOptions{})
	if err != nil || !compacted {
		t.Fatalf("Compact under a pinned mmap stream = (%v, %v), want (true, nil)", compacted, err)
	}
	// Pile a Reload on top of the compaction swap: the pinned epoch now
	// trails the published one by two swaps and must still be intact.
	if _, err := l.Reload(); err != nil {
		t.Fatalf("Reload under a pinned mmap stream: %v", err)
	}
	for _, d := range oldDirs {
		if _, err := os.Stat(d); err != nil {
			t.Fatalf("retired segment %s removed while a stream still reads its mapping: %v", d, err)
		}
	}

	// Draining decodes every remaining match through the retired
	// mappings — this is where a premature munmap would fault.
	got := []Match{first}
	for {
		m, serr, ok := next()
		if !ok {
			break
		}
		if serr != nil {
			t.Fatalf("streaming across compaction+reload: %v", serr)
		}
		got = append(got, m)
	}
	stop()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned mmap stream returned %d matches, want the %d pre-compaction matches", len(got), len(want))
	}

	// Last reader drained: the retired directories (and mappings) go.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gone := true
		for _, d := range oldDirs {
			if _, err := os.Stat(d); !os.IsNotExist(err) {
				gone = false
			}
		}
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retired segment directories still on disk after the last mmap reader drained")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The compacted epoch serves the survivors, still memory-mapped.
	if got, want := l.Meta().NumTrees, 397; got != want {
		t.Fatalf("NumTrees = %d after compaction, want %d", got, want)
	}
	if l.Counters().MmapLeaves == 0 {
		t.Fatal("post-compaction epoch lost its mappings")
	}
}

// TestReloadPicksUpTombstonesAndCompaction is the cross-process path:
// deletes and compactions published by a second handle on the same
// directory (the `sibuild -delete` / `sibuild -compact` shape) reach a
// serving handle through Reload, with queries pinned across the swap.
func TestReloadPicksUpTombstonesAndCompaction(t *testing.T) {
	trees := shardCorpus(300)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees[:200], Options{MSS: 3, Coding: postings.RootSplit}, 1); err != nil {
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
	ctx := context.Background()
	if _, err := writer.Append(ctx, trees[200:], 1); err != nil {
		t.Fatal(err)
	}
	const q = "S(//NN)"
	before, err := searchText(writer, q)
	if err != nil {
		t.Fatal(err)
	}
	victim := int(before[0].TID)
	if _, err := writer.Delete(ctx, []int{victim}); err != nil {
		t.Fatal(err)
	}
	want, err := searchText(writer, q)
	if err != nil {
		t.Fatal(err)
	}

	if changed, err := serving.Reload(); err != nil || !changed {
		t.Fatalf("Reload after external delete = (%v, %v), want (true, nil)", changed, err)
	}
	got, err := searchText(serving, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after reload, %q returned %d matches, want %d", q, len(got), len(want))
	}
	if c := serving.Counters(); c.TombstonedTrees != 1 {
		t.Fatalf("after reload, counters report %d tombstoned, want 1", c.TombstonedTrees)
	}

	// Now the writer compacts; the serving handle follows via Reload.
	if compacted, _, err := writer.Compact(ctx, CompactOptions{}); err != nil || !compacted {
		t.Fatalf("external Compact = (%v, %v), want (true, nil)", compacted, err)
	}
	wantCompacted, err := searchText(writer, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	if changed, err := serving.Reload(); err != nil || !changed {
		t.Fatalf("Reload after external compaction = (%v, %v), want (true, nil)", changed, err)
	}
	got, err = searchText(serving, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantCompacted) {
		t.Fatalf("after compaction reload, %q returned %d matches, want %d", q, len(got), len(wantCompacted))
	}
	c := serving.Counters()
	if c.Segments != 1 || c.TombstonedTrees != 0 || c.LiveTrees != 299 {
		t.Fatalf("after compaction reload: %d segments, %d live, %d tombstoned; want 1, 299, 0",
			c.Segments, c.LiveTrees, c.TombstonedTrees)
	}
}

// TestUpdateAtomicDeletePlusAppend covers the combined mutation: one
// Update that deletes and appends publishes exactly one generation, and
// both effects are visible together afterwards.
func TestUpdateAtomicDeletePlusAppend(t *testing.T) {
	trees := shardCorpus(260)
	l := openLive(t, trees[:250], 1, OpenOptions{})
	ctx := context.Background()
	if _, err := l.Append(ctx, trees[250:255], 1); err != nil {
		t.Fatal(err)
	}
	gen := l.Generation()
	built, newly, err := l.Update(ctx, []int{5, 9}, trees[255:], 1)
	if err != nil {
		t.Fatal(err)
	}
	if built == nil || newly != 2 {
		t.Fatalf("Update = (built %v, newly %d), want a built segment and 2 tombstones", built != nil, newly)
	}
	if l.Generation() != gen+1 {
		t.Fatalf("Update published %d generations, want exactly 1", l.Generation()-gen)
	}
	if c := l.Counters(); c.LiveTrees != 258 || c.TombstonedTrees != 2 {
		t.Fatalf("counters after update: %d live / %d tombstoned, want 258 / 2", c.LiveTrees, c.TombstonedTrees)
	}
	if _, err := l.Tree(5); err == nil {
		t.Fatal("Tree(5) succeeded after the update deleted it")
	}
	if tr, err := l.Tree(259); err != nil || tr.TID != 259 {
		t.Fatalf("Tree(259) after the update = (%v, %v)", tr, err)
	}
	// An update whose deletes are all already tombstoned and that brings
	// no trees publishes nothing.
	if _, newly, err := l.Update(ctx, []int{5, 9}, nil, 0); err != nil || newly != 0 {
		t.Fatalf("no-op update = (newly %d, %v), want (0, nil)", newly, err)
	}
	if l.Generation() != gen+1 {
		t.Fatalf("no-op update republished (generation %d)", l.Generation())
	}
}
