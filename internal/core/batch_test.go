package core

import (
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
// the sharded fan-out.
func TestBatchMatchesSequentialSharded(t *testing.T) {
	trees := shardCorpus(500)
	for _, shards := range []int{1, 3} {
		// PlanCache 64 also exercises plan-level dedup: the repeated and
		// permuted queries in batchQueries resolve to one *Plan, which
		// batch evaluation runs once and shares.
		for _, opts := range []OpenOptions{{}, {PlanCache: 64}} {
			h := openLive(t, trees, shards, opts)
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
					t.Errorf("shards=%d cache=%d: %q: batch differs from sequential",
						shards, opts.PlanCache, src)
				}
			}
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

// TestPlanCache exercises the serving cache: repeats hit by raw text,
// sibling permutations hit through the canonical key, and the LRU
// bound holds.
func TestPlanCache(t *testing.T) {
	trees := shardCorpus(300)
	h := openLive(t, trees, 2, OpenOptions{PlanCache: 64})
	want, err := searchText(h, "NP(DT)(NN)")
	if err != nil {
		t.Fatal(err)
	}
	c0 := h.Counters()
	if c0.PlanCacheMisses != 1 || c0.PlanCacheHits != 0 {
		t.Fatalf("first query: hits=%d misses=%d, want exactly 0/1 (one miss per lookup)",
			c0.PlanCacheHits, c0.PlanCacheMisses)
	}
	got, err := searchText(h, "NP(DT)(NN)") // raw-text repeat
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trunc(got), trunc(want)) {
		t.Fatal("cached plan returned different matches")
	}
	c1 := h.Counters()
	if c1.PlanCacheHits != c0.PlanCacheHits+1 {
		t.Fatalf("raw repeat: hits %d -> %d, want +1", c0.PlanCacheHits, c1.PlanCacheHits)
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
	h := openLive(t, trees, 1, OpenOptions{PlanCache: 64})
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

// TestPlanCacheEviction asserts the cache is bounded: filling it far
// past its capacity keeps the plan count at the bound.
func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(8)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for _, k := range keys {
		c.put(k, &Plan{Query: query.MustParse(k)})
	}
	if got := c.len(); got != 8 {
		t.Fatalf("cache holds %d plans, want bound 8", got)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("oldest key survived past the bound")
	}
	if _, ok := c.get("l"); !ok {
		t.Fatal("newest key evicted")
	}
}

// TestPlanCacheAliasesDoNotThrash is the regression test for the
// alias-eviction bug: storing a raw-text alias right after its
// canonical key hit used to evict that very canonical entry when the
// cache sat at capacity, so a size-1 cache alternating two spellings
// of one query missed on every single lookup. A plan's keys must count
// once: after the first compilation, every further lookup of either
// spelling hits.
func TestPlanCacheAliasesDoNotThrash(t *testing.T) {
	p := newCompiler(Meta{MSS: 3}, 1)
	const alias = "NP(NN)(DT)"     // non-canonical sibling order
	const canonical = "NP(DT)(NN)" // its canonical form
	if _, _, err := p.planText(alias); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, src := range []string{canonical, alias} {
			pl, hit, err := p.planText(src)
			if err != nil {
				t.Fatal(err)
			}
			if !hit || pl == nil {
				t.Fatalf("round %d %q: miss; alias storage evicted the canonical entry", i, src)
			}
		}
	}
	hits, misses := p.counters()
	if misses != 1 || hits != 6 {
		t.Fatalf("hits=%d misses=%d, want 6 hits and the single initial miss", hits, misses)
	}
	if got := p.cache.len(); got != 1 {
		t.Fatalf("cache holds %d plans, want 1 (both keys share it)", got)
	}
}

// TestPlanCacheAliasBound asserts the per-plan alias set stays capped:
// unlimited distinct spellings of one query cannot grow a cached
// plan's key set without bound.
func TestPlanCacheAliasBound(t *testing.T) {
	c := newPlanCache(4)
	pl := &Plan{Query: query.MustParse("A")}
	for _, k := range []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9"} {
		c.put(k, pl)
	}
	if got := c.len(); got != 1 {
		t.Fatalf("one plan stored under many keys occupies %d slots, want 1", got)
	}
	live := 0
	for _, k := range []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9"} {
		if _, ok := c.get(k); ok {
			live++
		}
	}
	if live != 1+maxPlanAliases {
		t.Fatalf("%d keys resolve, want the first plus %d aliases", live, maxPlanAliases)
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
