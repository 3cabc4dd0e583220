package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/query"
)

// batchQueries deliberately share cover pieces (NP(DT)(NN), S(NP)(VP),
// PP(IN)(NP) recur) so batched execution has fetches to deduplicate.
var batchQueries = []string{
	"NP(DT)(NN)",
	"S(NP(DT)(NN))(VP)",
	"S(NP)(VP(VBZ)(NP(DT)(NN)))",
	"VP(VBZ)(NP(DT)(NN))",
	"S(//NN)",
	"S(NP)(VP(//PP(IN)(NP)))",
	"PP(IN)(NP(DT)(NN))",
	"NP(DT)(NN)", // exact repeat
	"NP(NN)(DT)", // sibling permutation of the first query
}

// TestBatchMatchesSequential asserts SearchBatch's contract for every
// coding and for sharded indexes: per-query results identical to
// sequential evaluation.
func TestBatchMatchesSequential(t *testing.T) {
	trees := shardCorpus(500)
	for coding, ix := range buildAll(t, trees, 3) {
		batch, err := searchBatch(ix, batchQueries)
		if err != nil {
			t.Fatalf("%v: batch: %v", coding, err)
		}
		for i, src := range batchQueries {
			seq, err := searchText(ix, src)
			if err != nil {
				t.Fatalf("%v: %q: %v", coding, src, err)
			}
			if !reflect.DeepEqual(trunc(batch[i]), trunc(seq)) {
				t.Errorf("%v: %q: batch result differs from sequential:\nbatch %v\nseq   %v",
					coding, src, trunc(batch[i]), trunc(seq))
			}
		}
	}
}

// TestBatchMatchesSequentialSharded runs the same parity check through
// the sharded fan-out, and checks plan-level dedup: a query, its
// repeat and a sibling permutation resolve to one *Plan, which the
// batch evaluates once — the same join work as the query alone.
func TestBatchMatchesSequentialSharded(t *testing.T) {
	trees := shardCorpus(500)
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		h := openLive(t, trees, shards, OpenOptions{})
		batch, err := searchBatch(h, batchQueries)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i, src := range batchQueries {
			seq, err := searchText(h, src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(trunc(batch[i]), trunc(seq)) {
				t.Errorf("shards=%d: %q: batch differs from sequential", shards, src)
			}
		}
		alone, err := h.SearchBatch(ctx, []string{"NP(DT)(NN)"}, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		dup, err := h.SearchBatch(ctx, []string{"NP(DT)(NN)", "NP(DT)(NN)", "NP(NN)(DT)"}, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if alone[0].Stats.JoinRows == 0 || dup[0].Stats.JoinRows != alone[0].Stats.JoinRows {
			t.Errorf("shards=%d: batch of a query, its repeat and a permutation did %d join rows, the query alone %d",
				shards, dup[0].Stats.JoinRows, alone[0].Stats.JoinRows)
		}
	}
}

// TestBatchFewerFetches is the point of batching: on a workload with
// shared covers, one batch issues strictly fewer physical posting
// fetches than the same queries run sequentially.
func TestBatchFewerFetches(t *testing.T) {
	trees := shardCorpus(400)
	for _, shards := range []int{1, 3} {
		h := openLive(t, trees, shards, OpenOptions{})
		base := h.Counters().PostingFetches
		for _, src := range batchQueries {
			if _, err := searchText(h, src); err != nil {
				t.Fatal(err)
			}
		}
		seq := h.Counters().PostingFetches - base
		if _, err := searchBatch(h, batchQueries); err != nil {
			t.Fatal(err)
		}
		batch := h.Counters().PostingFetches - base - seq
		if batch >= seq {
			t.Errorf("shards=%d: batch issued %d posting fetches, sequential %d; want strictly fewer",
				shards, batch, seq)
		}
		if batch == 0 {
			t.Errorf("shards=%d: batch issued no fetches at all", shards)
		}
	}
}

// TestBatchBadQuery asserts a parse failure anywhere fails the whole
// batch and names the offending position.
func TestBatchBadQuery(t *testing.T) {
	h := openLive(t, shardCorpus(50), 2, OpenOptions{})
	_, err := searchBatch(h, []string{"NP(DT)", "NP(("})
	if err == nil {
		t.Fatal("batch with unparsable query succeeded")
	}
}

// TestPlanCache exercises the epoch's plan map: a repeat hits, and a
// sibling permutation hits through the canonical key.
func TestPlanCache(t *testing.T) {
	trees := shardCorpus(300)
	h := openLive(t, trees, 2, OpenOptions{})
	want, err := searchText(h, "NP(DT)(NN)")
	if err != nil {
		t.Fatal(err)
	}
	c0 := h.Counters()
	if c0.PlanCacheMisses != 1 || c0.PlanCacheHits != 0 {
		t.Fatalf("first query: hits=%d misses=%d, want exactly 0/1 (one miss per lookup)",
			c0.PlanCacheHits, c0.PlanCacheMisses)
	}
	got, err := searchText(h, "NP(DT)(NN)") // repeat
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trunc(got), trunc(want)) {
		t.Fatal("cached plan returned different matches")
	}
	c1 := h.Counters()
	if c1.PlanCacheHits != c0.PlanCacheHits+1 {
		t.Fatalf("repeat: hits %d -> %d, want +1", c0.PlanCacheHits, c1.PlanCacheHits)
	}
	got, err = searchText(h, "NP(NN)(DT)") // permutation: canonical-key hit
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trunc(got), trunc(want)) {
		t.Fatal("permuted query returned different matches")
	}
	c2 := h.Counters()
	if c2.PlanCacheHits <= c1.PlanCacheHits {
		t.Fatalf("permuted query did not hit the plan cache (hits %d -> %d)",
			c1.PlanCacheHits, c2.PlanCacheHits)
	}
}

// TestPlanCacheCallerMutation asserts a cached plan survives the
// caller mutating the query it was compiled from: plans clone the
// query before retaining it.
func TestPlanCacheCallerMutation(t *testing.T) {
	trees := shardCorpus(300)
	h := openLive(t, trees, 1, OpenOptions{})
	q := query.MustParse("NP(DT)(NN)")
	want, err := searchQuery(h, q)
	if err != nil {
		t.Fatal(err)
	}
	q.Nodes[1].Label = "ZZZ" // caller reuses the struct for something else
	got, err := searchText(h, "NP(DT)(NN)")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trunc(got), trunc(want)) {
		t.Fatalf("cached plan corrupted by caller mutation: %d vs %d matches", len(got), len(want))
	}
}

// TestPlanCacheEviction asserts the epoch's plan map is bounded:
// more distinct queries than maxEpochPlans clear it wholesale instead
// of growing it, and searches keep answering correctly throughout.
func TestPlanCacheEviction(t *testing.T) {
	h := openLive(t, shardCorpus(100), 1, OpenOptions{})
	ctx := context.Background()
	want, err := h.Search(ctx, "NP(DT)(NN)", SearchOpts{CountOnly: true})
	if err != nil || want.Count == 0 {
		t.Fatalf("vacuous fixture: %v, %v", want, err)
	}
	for i := 0; i <= maxEpochPlans+10; i++ {
		res, err := h.Search(ctx, fmt.Sprintf("NP(DT)(ZZ%d)", i), SearchOpts{CountOnly: true})
		if err != nil || res.Count != 0 {
			t.Fatalf("query %d: %v, %v", i, res, err)
		}
	}
	e := h.cur.Load()
	e.plansMu.Lock()
	n := len(e.plans)
	e.plansMu.Unlock()
	if n > maxEpochPlans || n == 0 {
		t.Fatalf("plan map holds %d plans, want 1..%d", n, maxEpochPlans)
	}
	got, err := h.Search(ctx, "NP(DT)(NN)", SearchOpts{CountOnly: true})
	if err != nil || got.Count != want.Count {
		t.Fatalf("after overflow: count %v (err %v), want %d", got, err, want.Count)
	}
	if c := h.Counters(); c.PlanCacheMisses != maxEpochPlans+13 {
		t.Fatalf("misses = %d, want one per distinct query plus the cleared repeat", c.PlanCacheMisses)
	}
}

// TestPlanReuseAcrossPermutations asserts the correctness premise of
// canonical-key sharing: evaluating with the cached permuted plan gives
// the same (tid, root) matches for all codings.
func TestPlanReuseAcrossPermutations(t *testing.T) {
	trees := shardCorpus(300)
	pairs := [][2]string{
		{"S(NP(DT)(NN))(VP)", "S(VP)(NP(NN)(DT))"},
		{"VP(VBZ)(NP(//NN))", "VP(NP(//NN))(VBZ)"},
	}
	for coding, ix := range buildAll(t, trees, 3) {
		for _, pr := range pairs {
			a, err := searchText(ix, pr[0])
			if err != nil {
				t.Fatal(err)
			}
			b, err := searchText(ix, pr[1])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(trunc(a), trunc(b)) {
				t.Errorf("%v: %q and %q disagree", coding, pr[0], pr[1])
			}
		}
	}
}
