package core

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/lingtree"
	"repro/internal/postings"
)

// layoutRun is what one layout answered and what it cost, over the
// fixed operation list of TestEveryLayoutThroughOneHandle.
type layoutRun struct {
	matches [][]Match
	counts  []int
	fetches []uint64
	rows    []uint64
}

// runLayoutOps drives search / count / limit+offset / stream / batch
// through l and records each operation's outcome and work counters.
func runLayoutOps(t *testing.T, l *Live) layoutRun {
	t.Helper()
	ctx := context.Background()
	var run layoutRun
	note := func(r *Result) {
		run.matches = append(run.matches, r.Matches)
		run.counts = append(run.counts, r.Count)
		run.fetches = append(run.fetches, r.Stats.PostingFetches)
		run.rows = append(run.rows, r.Stats.JoinRows)
	}
	for _, src := range shardQueries {
		for _, opts := range []SearchOpts{{}, {CountOnly: true}, {Limit: 5, Offset: 3}} {
			r, err := l.Search(ctx, src, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", src, opts, err)
			}
			note(r)
		}
		r, err := l.SearchStream(ctx, src, SearchOpts{Limit: 4})
		if err != nil {
			t.Fatal(err)
		}
		r.Matches, _ = drainStream(t, r)
		note(r)
	}
	rs, err := l.SearchBatch(ctx, shardQueries, SearchOpts{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		note(r)
	}
	return run
}

// TestEveryLayoutThroughOneHandle: OpenLive is the only handle, so it
// must serve every on-disk layout — a format-1 single directory, a
// format-2 sharded root and a format-3 segment manifest — with the same
// answers, and layouts that partition the corpus into the same leaves
// must also cost the same posting fetches and join rows, operation by
// operation.
func TestEveryLayoutThroughOneHandle(t *testing.T) {
	trees := shardCorpus(600)
	opt := Options{MSS: 3, Coding: postings.RootSplit}
	ctx := context.Background()
	build := func(t *testing.T, dir string, trees []*lingtree.Tree, shards int) {
		t.Helper()
		if _, err := BuildSharded(dir, trees, opt, shards); err != nil {
			t.Fatal(err)
		}
	}
	// appended builds trees[:200] and appends the rest in the given
	// batches, optionally compacting into one segment of compact shards.
	appended := func(t *testing.T, dir string, batches []int, compact int) {
		t.Helper()
		build(t, dir, trees[:200], 1)
		l, err := OpenLive(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		at := 200
		for _, n := range batches {
			if _, err := l.Append(ctx, trees[at:at+n], 1); err != nil {
				t.Fatal(err)
			}
			at += n
		}
		if compact > 0 {
			if ran, _, err := l.Compact(ctx, CompactOptions{Shards: compact}); err != nil || !ran {
				t.Fatalf("compact: ran=%v err=%v", ran, err)
			}
		}
	}
	layouts := []struct {
		name           string
		format, leaves int
		make           func(t *testing.T, dir string)
	}{
		{"format1-single", FormatSingle, 1, func(t *testing.T, dir string) { build(t, dir, trees, 1) }},
		{"format2-one-shard", FormatSharded, 1, func(t *testing.T, dir string) {
			// BuildSharded never writes a one-shard root, but the format
			// allows it: a leaf under shard-0000/ and its meta at the root.
			m, err := Build(filepath.Join(dir, shardDirName(0)), trees, opt)
			if err != nil {
				t.Fatal(err)
			}
			root := *m
			root.FormatVersion, root.Shards = FormatSharded, 1
			if err := writeMeta(dir, &root); err != nil {
				t.Fatal(err)
			}
		}},
		{"format3-one-segment", FormatSegmented, 1, func(t *testing.T, dir string) { appended(t, dir, []int{400}, 1) }},
		{"format2-three-shards", FormatSharded, 3, func(t *testing.T, dir string) { build(t, dir, trees, 3) }},
		{"format3-sharded-segment", FormatSegmented, 3, func(t *testing.T, dir string) { appended(t, dir, []int{400}, 3) }},
		{"format3-three-segments", FormatSegmented, 3, func(t *testing.T, dir string) { appended(t, dir, []int{200, 200}, 0) }},
	}
	reference := map[int]layoutRun{} // first layout of each leaf count
	var first layoutRun
	for i, lay := range layouts {
		dir := filepath.Join(t.TempDir(), lay.name)
		lay.make(t, dir)
		meta, err := readMeta(dir)
		if err != nil {
			t.Fatal(err)
		}
		l := openDir(t, dir, OpenOptions{})
		if meta.FormatVersion != lay.format || l.NumShards() != lay.leaves || l.Meta().NumTrees != len(trees) {
			t.Fatalf("%s: format %d, %d leaves, %d trees; want format %d, %d leaves, %d trees",
				lay.name, meta.FormatVersion, l.NumShards(), l.Meta().NumTrees, lay.format, lay.leaves, len(trees))
		}
		run := runLayoutOps(t, l)
		if i == 0 {
			first = run
		}
		for op := range run.matches {
			if !sameMatches(run.matches[op], first.matches[op]) {
				t.Errorf("%s op %d: matches differ from %s", lay.name, op, layouts[0].name)
			}
		}
		ref, ok := reference[lay.leaves]
		if !ok {
			reference[lay.leaves] = run
			continue
		}
		got := fmt.Sprint(run.counts, run.fetches, run.rows)
		if want := fmt.Sprint(ref.counts, ref.fetches, ref.rows); got != want {
			t.Errorf("%s: counts/fetches/joinrows differ from the first %d-leaf layout:\n got %s\nwant %s",
				lay.name, lay.leaves, got, want)
		}
	}
}
