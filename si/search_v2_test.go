package si_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/si"
)

// buildSharded builds one corpus into an index with the given shard
// count and opens it.
func buildSharded(t *testing.T, trees []*si.Tree, shards int) *si.Index {
	t.Helper()
	dir := filepath.Join(t.TempDir(), fmt.Sprintf("ix%d", shards))
	opts := si.DefaultBuildOptions()
	opts.Shards = shards
	if _, err := si.Build(dir, trees, opts); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

var windowQueries = []string{
	"NP(DT)(NN)",
	"S(NP)(VP)",
	"S(//NN)",
	"VP(VBZ)",
	"ZZZ(QQQ)", // no matches
}

// TestLimitIsPrefixOfUnlimited is the property the v2 API promises:
// for every query, limit and offset, Search(limit=N, offset=M) equals
// the window [M, M+N) of the unlimited search — across sharded and
// unsharded indexes, where the sharded path early-terminates.
func TestLimitIsPrefixOfUnlimited(t *testing.T) {
	trees := si.GenerateCorpus(2012, 600)
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		ix := buildSharded(t, trees, shards)
		for _, q := range windowQueries {
			full, err := ix.Search(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if full.Stats.Truncated || full.Count != len(full.Matches) {
				t.Fatalf("shards=%d %s: unlimited search truncated=%v count=%d len=%d",
					shards, q, full.Stats.Truncated, full.Count, len(full.Matches))
			}
			for _, limit := range []int{1, 2, 7, 100000} {
				for _, offset := range []int{0, 1, 13} {
					res, err := ix.Search(ctx, q, si.WithLimit(limit), si.WithOffset(offset))
					if err != nil {
						t.Fatal(err)
					}
					want := full.Matches
					if offset < len(want) {
						want = want[offset:]
					} else {
						want = nil
					}
					if limit < len(want) {
						want = want[:limit]
					}
					if len(res.Matches) != len(want) {
						t.Fatalf("shards=%d %s limit=%d offset=%d: %d matches, want %d",
							shards, q, limit, offset, len(res.Matches), len(want))
					}
					for i := range want {
						if res.Matches[i] != want[i] {
							t.Fatalf("shards=%d %s limit=%d offset=%d: match %d = %+v, want %+v",
								shards, q, limit, offset, i, res.Matches[i], want[i])
						}
					}
					// A truncated result may undercount but never overcounts,
					// and an untruncated one is exact.
					if res.Stats.Truncated {
						if res.Count > full.Count {
							t.Fatalf("shards=%d %s: truncated count %d > total %d", shards, q, res.Count, full.Count)
						}
					} else if res.Count != full.Count {
						t.Fatalf("shards=%d %s limit=%d offset=%d: untruncated count %d, want %d",
							shards, q, limit, offset, res.Count, full.Count)
					}
				}
			}
		}
	}
}

// TestLimitedSearchFetchesLess is the acceptance criterion: on a
// sharded index, a limit small relative to the full result set must
// issue strictly fewer posting fetches than the unlimited search of
// the same query, observed through si.Stats.
func TestLimitedSearchFetchesLess(t *testing.T) {
	ix := buildSharded(t, si.GenerateCorpus(2012, 2000), 4)
	ctx := context.Background()
	const q = "NP(DT)(NN)" // thousands of matches spread over all shards

	base := ix.Stats().PostingFetches
	full, err := ix.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	fullFetches := ix.Stats().PostingFetches - base
	if full.Count < 100 {
		t.Fatalf("query matches only %d times; the limit would not be small relative to it", full.Count)
	}
	if full.Stats.ShardsConsulted != 4 || full.Stats.PostingFetches != fullFetches {
		t.Fatalf("unlimited stats %+v disagree with counter delta %d", full.Stats, fullFetches)
	}

	res, err := ix.Search(ctx, q, si.WithLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	limitedFetches := ix.Stats().PostingFetches - base - fullFetches
	if limitedFetches >= fullFetches {
		t.Fatalf("limited search issued %d posting fetches, unlimited %d; want strictly fewer",
			limitedFetches, fullFetches)
	}
	if res.Stats.PostingFetches != limitedFetches {
		t.Fatalf("per-query stats report %d fetches, counter delta %d", res.Stats.PostingFetches, limitedFetches)
	}
	if res.Stats.ShardsConsulted >= 4 || !res.Stats.Truncated {
		t.Fatalf("limited search consulted %d shards truncated=%v; want early termination",
			res.Stats.ShardsConsulted, res.Stats.Truncated)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("limited search returned %d matches, want 3", len(res.Matches))
	}
}

// TestLimitedSearchFewerJoinRows is the in-shard half of the
// acceptance criterion: on a SINGLE-shard index — where no shard can
// be skipped — a limited search must still stop early, producing
// strictly fewer join rows than the unlimited run while issuing no
// more posting fetches. This is the streaming join at work: posting
// entries beyond the window are never decoded.
func TestLimitedSearchFewerJoinRows(t *testing.T) {
	ix := buildSharded(t, si.GenerateCorpus(2012, 2000), 1)
	ctx := context.Background()
	const q = "NP(DT)(NN)" // thousands of matches in the one shard

	full, err := ix.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Count < 100 {
		t.Fatalf("query matches only %d times; the limit would not be small relative to it", full.Count)
	}
	res, err := ix.Search(ctx, q, si.WithLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 5 || !res.Stats.Truncated {
		t.Fatalf("limited search returned %d matches truncated=%v", len(res.Matches), res.Stats.Truncated)
	}
	if res.Stats.JoinRows >= full.Stats.JoinRows {
		t.Fatalf("single-shard limited search produced %d join rows, unlimited %d; want strictly fewer",
			res.Stats.JoinRows, full.Stats.JoinRows)
	}
	if res.Stats.PostingFetches > full.Stats.PostingFetches {
		t.Fatalf("limited search issued %d posting fetches, unlimited %d; limits must not regress fetches",
			res.Stats.PostingFetches, full.Stats.PostingFetches)
	}
}

// TestSearchStream asserts the public streaming path: iterating a
// pending result yields exactly the limited Search window, stats
// finalize after the drain, and breaking early keeps later shards
// unconsulted.
func TestSearchStream(t *testing.T) {
	ix := buildSharded(t, si.GenerateCorpus(2012, 800), 4)
	ctx := context.Background()
	const q = "NP(DT)(NN)"
	want, err := ix.Search(ctx, q, si.WithLimit(7), si.WithOffset(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.SearchStream(ctx, q, si.WithLimit(7), si.WithOffset(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != nil {
		t.Fatal("pending result must not carry materialized matches")
	}
	var got []si.Match
	for m, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if len(got) != len(want.Matches) {
		t.Fatalf("stream yielded %d matches, Search %d", len(got), len(want.Matches))
	}
	for i := range got {
		if got[i] != want.Matches[i] {
			t.Fatalf("stream match %d = %+v, want %+v", i, got[i], want.Matches[i])
		}
	}
	if res.Count < len(got)+1 || !res.Stats.Truncated {
		t.Fatalf("finalized count=%d truncated=%v after a limited drain", res.Count, res.Stats.Truncated)
	}

	// Breaking after the first match keeps later shards unconsulted.
	res2, err := ix.SearchStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res2.All() {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if res2.Stats.ShardsConsulted >= 4 {
		t.Fatalf("break after one match consulted %d shards", res2.Stats.ShardsConsulted)
	}
}

// TestCountOnlyPath asserts Count and WithCountOnly produce exact
// totals with no match slice, agreeing with the unlimited search.
func TestCountOnlyPath(t *testing.T) {
	trees := si.GenerateCorpus(7, 500)
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		ix := buildSharded(t, trees, shards)
		for _, q := range windowQueries {
			full, err := ix.Search(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			n, err := ix.Count(ctx, q)
			if err != nil || n != full.Count {
				t.Fatalf("shards=%d %s: Count = %d (%v), want %d", shards, q, n, err, full.Count)
			}
			res, err := ix.Search(ctx, q, si.WithCountOnly())
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != full.Count || res.Matches != nil || res.Stats.Truncated {
				t.Fatalf("shards=%d %s: count-only result %+v, want count %d with nil matches",
					shards, q, res, full.Count)
			}
		}
	}
}

// TestCancelledContext asserts an already-cancelled context returns
// promptly with context.Canceled from every entry point, on sharded
// and unsharded indexes (run under -race by make test).
func TestCancelledContext(t *testing.T) {
	trees := si.GenerateCorpus(11, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shards := range []int{1, 3} {
		ix := buildSharded(t, trees, shards)
		if _, err := ix.Search(ctx, "NP(DT)(NN)"); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: Search on cancelled ctx: %v, want context.Canceled", shards, err)
		}
		if _, err := ix.Search(ctx, "S(//NN)", si.WithLimit(1)); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: limited Search on cancelled ctx: %v", shards, err)
		}
		if _, err := ix.Count(ctx, "NP(DT)(NN)"); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: Count on cancelled ctx: %v", shards, err)
		}
		if _, err := ix.SearchBatch(ctx, []string{"NP(DT)", "S(NP)(VP)"}); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: SearchBatch on cancelled ctx: %v", shards, err)
		}
		q, err := si.ParseQuery("NP(DT)(NN)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Query(ctx, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("shards=%d: Query on cancelled ctx: %v", shards, err)
		}
	}
}

// TestHugeOffsetSaturates is the regression test for the offset+limit
// overflow: an offset near math.MaxInt used to panic (makeslice: cap
// out of range) inside a shard goroutine, which no caller can recover,
// and a slightly larger one wrapped the early-stop target negative and
// silently ran the limited search as a full fan-out. The target
// saturates instead: the search stays a bounded (streamed) one, finds
// every match, and returns the empty window past them, untruncated.
func TestHugeOffsetSaturates(t *testing.T) {
	trees := si.GenerateCorpus(2012, 400)
	ctx := context.Background()
	const q = "NP(DT)(NN)"
	for _, shards := range []int{1, 4} {
		ix := buildSharded(t, trees, shards)
		full, err := ix.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, offset := range []int{math.MaxInt - 10, math.MaxInt - 5, math.MaxInt} {
			res, err := ix.Search(ctx, q, si.WithLimit(10), si.WithOffset(offset))
			if err != nil {
				t.Fatalf("shards=%d offset=%d: %v", shards, offset, err)
			}
			if len(res.Matches) != 0 || res.Count != full.Count || res.Stats.Truncated {
				t.Errorf("shards=%d offset=%d: %d matches, count %d, truncated=%v; want the empty window past all %d matches",
					shards, offset, len(res.Matches), res.Count, res.Stats.Truncated, full.Count)
			}
			if res.Stats.Strategy != "stream" {
				t.Errorf("shards=%d offset=%d: strategy %q, want the bounded search to stream", shards, offset, res.Stats.Strategy)
			}
			pending, err := ix.SearchStream(ctx, q, si.WithLimit(10), si.WithOffset(offset))
			if err != nil {
				t.Fatal(err)
			}
			for m, err := range pending.All() {
				t.Fatalf("shards=%d offset=%d: stream yielded %+v, %v past the end", shards, offset, m, err)
			}
			if pending.Count != full.Count || pending.Stats.Truncated {
				t.Errorf("shards=%d offset=%d: stream count %d truncated=%v, want %d untruncated",
					shards, offset, pending.Count, pending.Stats.Truncated, full.Count)
			}
		}
	}
}

// TestDeadlineExceeded asserts an expired deadline surfaces as
// context.DeadlineExceeded rather than hanging or succeeding.
func TestDeadlineExceeded(t *testing.T) {
	ix := buildSharded(t, si.GenerateCorpus(3, 400), 2)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := ix.Search(ctx, "S(//NN)"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Search past deadline: %v, want context.DeadlineExceeded", err)
	}
}

// TestAllIterator asserts All() streams exactly the materialized
// matches and honors an early break.
func TestAllIterator(t *testing.T) {
	ix := buildSharded(t, si.GenerateCorpus(42, 300), 2)
	res, err := ix.Search(context.Background(), "NP(DT)(NN)", si.WithLimit(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("vacuous: no matches")
	}
	var got []si.Match
	for m, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if len(got) != len(res.Matches) {
		t.Fatalf("All yielded %d matches, want %d", len(got), len(res.Matches))
	}
	for i := range got {
		if got[i] != res.Matches[i] {
			t.Fatalf("All match %d = %+v, want %+v", i, got[i], res.Matches[i])
		}
	}
	n := 0
	for range res.All() {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("break after first yield iterated %d times", n)
	}
}

// TestBatchWindowParity asserts batch results with limits equal
// per-query limited searches.
func TestBatchWindowParity(t *testing.T) {
	trees := si.GenerateCorpus(2012, 400)
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		ix := buildSharded(t, trees, shards)
		batch, err := ix.SearchBatch(ctx, windowQueries, si.WithLimit(4), si.WithOffset(2))
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range windowQueries {
			single, err := ix.Search(ctx, q, si.WithLimit(4), si.WithOffset(2))
			if err != nil {
				t.Fatal(err)
			}
			if len(batch[i].Matches) != len(single.Matches) {
				t.Fatalf("shards=%d %s: batch window %d matches, single %d",
					shards, q, len(batch[i].Matches), len(single.Matches))
			}
			for j := range single.Matches {
				if batch[i].Matches[j] != single.Matches[j] {
					t.Fatalf("shards=%d %s: batch match %d = %+v, single %+v",
						shards, q, j, batch[i].Matches[j], single.Matches[j])
				}
			}
		}
	}
}
