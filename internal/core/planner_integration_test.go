package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/lingtree"
	"repro/internal/planner"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// heavyTrees returns n trees that each hold NP(DT)(NN) several times,
// so appending them makes that cover piece of heavyQuery far heavier
// in the stored counts.
func heavyTrees(n int) []*lingtree.Tree {
	trees := make([]*lingtree.Tree, n)
	for i := range trees {
		trees[i] = lingtree.MustParse(i, "(S (NP (DT a) (NN dog)) (VP (VBZ sees) (NP (DT the) (NN cat)) (NP (DT a) (NN rat))))")
	}
	return trees
}

// heavyQuery is the query whose piece heavyTrees weighs down.
const heavyQuery = "S(NP(DT)(NN))(VP)"

// heavier reports whether some piece's estimate grew from before to
// after.
func heavier(before, after map[string]uint64) bool {
	for k, est := range after {
		if est > before[k] {
			return true
		}
	}
	return false
}

// explainFresh runs q with explain on l and asserts the plan was costed
// against the counts l currently serves: it was compiled on the current
// epoch (no plan-map hit) and every piece's estimate is the key's
// posting count across the current segments (l holds no tombstones
// here, so that is LookupKey's live count). It returns the piece
// estimates by key.
func explainFresh(t *testing.T, l *Live, q string) map[string]uint64 {
	t.Helper()
	res, err := l.Search(context.Background(), q, SearchOpts{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCacheHit {
		t.Fatalf("%s: first search after a publish reused a plan", q)
	}
	if res.Stats.EstimatedRows == 0 || len(res.Stats.Pieces) == 0 {
		t.Fatalf("%s: vacuous fixture: estimate %d, %d pieces", q, res.Stats.EstimatedRows, len(res.Stats.Pieces))
	}
	est := make(map[string]uint64, len(res.Stats.Pieces))
	for _, p := range res.Stats.Pieces {
		want, err := l.LookupKey(subtree.Key(p.Key))
		if err != nil {
			t.Fatal(err)
		}
		if p.Est != uint64(want) {
			t.Fatalf("%s: piece %s costed at %d, the current segments store %d", q, p.Key, p.Est, want)
		}
		est[p.Key] = p.Est
	}
	return est
}

// TestPlanCacheInvalidationOnPublish asserts a plan is costed against
// the epoch it runs on: after an Append (and a Delete + Compact)
// publishes a new segment set, the very next search of a warmed query
// compiles afresh, with per-piece estimates equal to the new epoch's
// stored counts; a repeat with no publish in between reuses that plan.
func TestPlanCacheInvalidationOnPublish(t *testing.T) {
	l := openLive(t, shardCorpus(200), 1, OpenOptions{})
	ctx := context.Background()
	const q = heavyQuery

	before := explainFresh(t, l, q)
	if res, err := l.Search(ctx, q, SearchOpts{}); err != nil || !res.Stats.PlanCacheHit {
		t.Fatalf("warm repeat: hit=%v err=%v, want a plan-map hit", res != nil && res.Stats.PlanCacheHit, err)
	}

	if _, err := l.Append(ctx, heavyTrees(100), 1); err != nil {
		t.Fatal(err)
	}
	if after := explainFresh(t, l, q); !heavier(before, after) {
		t.Fatalf("append made no piece heavier: %v -> %v", before, after)
	}

	if _, err := l.Delete(ctx, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Compact(ctx, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	explainFresh(t, l, q)
	hits := l.Counters().PlanCacheHits
	if _, err := l.Search(ctx, q, SearchOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := l.Counters().PlanCacheHits; got != hits+1 {
		t.Fatalf("post-compact repeat was not a plan-map hit: hits %d -> %d", hits, got)
	}
}

// TestReloadInvalidatesPlans covers the cross-process half: a Reload
// that picks up another process's publish serves a new epoch, so the
// next search plans against the reloaded segments' counts.
func TestReloadInvalidatesPlans(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, shardCorpus(200), Options{MSS: 3, Coding: postings.RootSplit}, 1); err != nil {
		t.Fatal(err)
	}
	serving := openDir(t, dir, OpenOptions{})
	ctx := context.Background()
	const q = heavyQuery
	before := explainFresh(t, serving, q)

	// A second writer process appends and publishes.
	writer, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Append(ctx, heavyTrees(100), 1); err != nil {
		writer.Close()
		t.Fatal(err)
	}
	writer.Close()

	if changed, err := serving.Reload(); err != nil || !changed {
		t.Fatalf("Reload = %v, %v; want a pickup", changed, err)
	}
	if after := explainFresh(t, serving, q); !heavier(before, after) {
		t.Fatalf("reload made no piece heavier: %v -> %v", before, after)
	}
}

// TestMetaCarriesNoKeyStats covers both sides of the deleted statistics
// block: a fresh 1- or 4-shard build writes no key_stats key and keeps
// every meta.json under 1 KB, and once every meta.json is given a block
// like the ones older builds wrote, the index opens unchanged — the
// same matches, with plans still costed by the stored counts.
func TestMetaCarriesNoKeyStats(t *testing.T) {
	const q = heavyQuery
	const oldBlock = `{"keys":{"3:NP(DT)(NN)":{"e":1,"t":1,"b":9}},"total_keys":1,"total_entries":1,"total_bytes":9}`
	for _, shards := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), "ix")
		if _, err := BuildSharded(dir, shardCorpus(300), Options{MSS: 3, Coding: postings.RootSplit}, shards); err != nil {
			t.Fatal(err)
		}
		want, err := searchText(openDir(t, dir, OpenOptions{}), q)
		if err != nil || len(want) == 0 {
			t.Fatalf("shards=%d: vacuous fixture: %d matches, err %v", shards, len(want), err)
		}
		metas, err := filepath.Glob(filepath.Join(dir, "shard-*", metaFileName))
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, filepath.Join(dir, metaFileName))
		if shards > 1 && len(metas) != shards+1 {
			t.Fatalf("shards=%d: found %d meta.json files", shards, len(metas))
		}
		for _, path := range metas {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			if _, ok := fields["key_stats"]; ok || len(raw) > 1024 {
				t.Fatalf("shards=%d: %s is %d bytes, key_stats present: %v", shards, path, len(raw), ok)
			}
			fields["key_stats"] = json.RawMessage(oldBlock)
			if raw, err = json.Marshal(fields); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l := openDir(t, dir, OpenOptions{})
		explainFresh(t, l, q)
		if got, err := searchText(l, q); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: with an old key_stats block: %d matches, err %v; want the %d of the fresh build", shards, len(got), err, len(want))
		}
	}
}

// TestEstimateCountersSkipTruncated asserts the estimate-error counters
// only observe complete results: a limited search whose Count is a
// prefix leaves both unchanged, while the unlimited search adds its
// estimate and exactly its count.
func TestEstimateCountersSkipTruncated(t *testing.T) {
	l := openLive(t, shardCorpus(300), 2, OpenOptions{})
	ctx := context.Background()
	const q = "NP(DT)(NN)"
	c0 := l.Counters()
	res, err := l.Search(ctx, q, SearchOpts{Limit: 1})
	if err != nil || !res.Stats.Truncated {
		t.Fatalf("vacuous fixture: limited search truncated=%v err=%v", res != nil && res.Stats.Truncated, err)
	}
	if c := l.Counters(); c.PlanEstimatedRows != c0.PlanEstimatedRows || c.PlanActualRows != c0.PlanActualRows {
		t.Fatalf("truncated search moved the counters: est %d -> %d, act %d -> %d",
			c0.PlanEstimatedRows, c.PlanEstimatedRows, c0.PlanActualRows, c.PlanActualRows)
	}
	res, err = l.Search(ctx, q, SearchOpts{})
	if err != nil || res.Count < 2 || res.Stats.EstimatedRows == 0 {
		t.Fatalf("vacuous fixture: count %v, est %v, err %v", res.Count, res.Stats.EstimatedRows, err)
	}
	c := l.Counters()
	if got := c.PlanActualRows - c0.PlanActualRows; got != uint64(res.Count) {
		t.Fatalf("unlimited search added %d actual rows, want its count %d", got, res.Count)
	}
	if got := c.PlanEstimatedRows - c0.PlanEstimatedRows; got != res.Stats.EstimatedRows {
		t.Fatalf("unlimited search added %d estimated rows, want its estimate %d", got, res.Stats.EstimatedRows)
	}
}

// twinAnswers is one plan mode's answers to a query list on the
// root-split index at dir, through every read path.
type twinAnswers struct {
	search, stream, batch [][]Match
	count                 []int
}

// answerTwins runs srcs on the index at dir through search, count-only,
// stream and batch, costed or under the syntactic ablation.
func answerTwins(t *testing.T, dir string, srcs []string, syntactic bool) twinAnswers {
	t.Helper()
	planner.UseSyntacticOrder = syntactic
	defer func() { planner.UseSyntacticOrder = false }()
	l, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	var out twinAnswers
	for _, src := range srcs {
		res, err := l.Search(ctx, src, SearchOpts{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		out.search = append(out.search, res.Matches)
		cres, err := l.Search(ctx, src, SearchOpts{CountOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		out.count = append(out.count, cres.Count)
		sres, err := l.SearchStream(ctx, src, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		var streamed []Match
		for m, err := range sres.All() {
			if err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, m)
		}
		out.stream = append(out.stream, streamed)
	}
	batch, err := searchBatch(l, srcs)
	if err != nil {
		t.Fatal(err)
	}
	out.batch = batch
	return out
}

// subsetOf reports whether every match of a is in b.
func subsetOf(a, b []Match) bool {
	in := make(map[Match]bool, len(b))
	for _, m := range b {
		in[m] = true
	}
	for _, m := range a {
		if !in[m] {
			return false
		}
	}
	return true
}

// TestTwinClassAnswersBracketed covers the queries TestModelHistories
// leaves out of its costed-against-syntactic check — those with
// same-label siblings, on which root-split answers may hold surplus
// roots — over random corpora of 120 trees. Widening a piece's key adds a necessary condition on
// its root, so it may only remove surplus: for root-split on 1 and 3
// shards, through search, count-only, stream and batch, the exact
// matcher's answer is contained in the costed (widened) plan's, which
// is contained in the syntactic (minRC) plan's.
func TestTwinClassAnswersBracketed(t *testing.T) {
	rng := rand.New(rand.NewSource(20120808))
	queries, smaller, costedSurplus, minRCSurplus := 0, 0, 0, 0
	for round := 0; round < 4; round++ {
		trees := randomForest(rng, 120)
		// Draw six queries outside the class from the corpus generator
		// too, keeping the ones inside it, so each round's corpus follows
		// the same draws; a second generator adds more of the class.
		var twins []*query.Query
		for kept := 0; kept < 6; {
			if q := randomQuery(rng); hasSameLabelSiblings(q) {
				twins = append(twins, q)
			} else {
				kept++
			}
		}
		extra := rand.New(rand.NewSource(int64(round)))
		for len(twins) < 16 {
			if q := randomQuery(extra); hasSameLabelSiblings(q) {
				twins = append(twins, q)
			}
		}
		srcs := make([]string, len(twins))
		for i, q := range twins {
			srcs[i] = q.Canonical()
		}
		for _, shards := range []int{1, 3} {
			dir := filepath.Join(t.TempDir(), "ix")
			if _, err := BuildSharded(dir, trees, Options{MSS: 3, Coding: postings.RootSplit}, shards); err != nil {
				t.Fatal(err)
			}
			costed := answerTwins(t, dir, srcs, false)
			minRC := answerTwins(t, dir, srcs, true)
			for i, q := range twins {
				exact := groundTruth(trees, q)
				for path, got := range map[string][2][]Match{
					"search": {costed.search[i], minRC.search[i]},
					"stream": {costed.stream[i], minRC.stream[i]},
					"batch":  {costed.batch[i], minRC.batch[i]},
				} {
					if !subsetOf(exact, got[0]) || !subsetOf(got[0], got[1]) {
						t.Fatalf("round %d shards %d %s %s: exact %d ⊆ costed %d ⊆ minRC %d does not hold\nexact:  %v\ncosted: %v\nminRC:  %v",
							round, shards, path, srcs[i], len(exact), len(got[0]), len(got[1]), trunc(exact), trunc(got[0]), trunc(got[1]))
					}
				}
				if c, s := costed.count[i], minRC.count[i]; c != len(costed.search[i]) || s != len(minRC.search[i]) {
					t.Fatalf("round %d shards %d %s: count-only %d / %d, searches found %d / %d",
						round, shards, srcs[i], c, s, len(costed.search[i]), len(minRC.search[i]))
				}
				if shards == 1 {
					queries++
					costedSurplus += len(costed.search[i]) - len(exact)
					minRCSurplus += len(minRC.search[i]) - len(exact)
					if len(costed.search[i]) < len(minRC.search[i]) {
						smaller++
					}
				}
			}
		}
	}
	t.Logf("widening made %d of %d same-label-sibling answers smaller; surplus roots %d (minRC) -> %d (widened)",
		smaller, queries, minRCSurplus, costedSurplus)
	if smaller == 0 {
		t.Fatal("vacuous fixture: widening removed no surplus root")
	}
}

// TestWidenedAbsentKeyIsEmpty asserts an absent widened key ends a
// search at its first fetch: every minRC piece of A(B(C)(D)) — B(C)(D)
// and the single node A — is stored, but no A has a B child, so the
// costed plan widens A to the absent A(B), leads with it and fetches
// nothing else, where the syntactic plan fetches both pieces.
func TestWidenedAbsentKeyIsEmpty(t *testing.T) {
	trees := []*lingtree.Tree{lingtree.MustParse(0, "(X (A (E)) (B (C) (D)))")}
	const q = "A(B(C)(D))"
	for _, syntactic := range []bool{false, true} {
		// A fresh handle per mode: an epoch keeps the first plan it
		// compiles for a query.
		l := openLive(t, trees, 1, OpenOptions{})
		planner.UseSyntacticOrder = syntactic
		res, err := l.Search(context.Background(), q, SearchOpts{Explain: true})
		planner.UseSyntacticOrder = false
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(1)
		if syntactic {
			want = 2
		}
		if res.Count != 0 || res.Stats.PostingFetches != want || len(res.Stats.Pieces) != 2 {
			t.Fatalf("syntactic=%v: %d matches after %d fetches over pieces %+v, want 0 after %d over two pieces",
				syntactic, res.Count, res.Stats.PostingFetches, res.Stats.Pieces, want)
		}
	}
}

// TestExplainStats asserts the observability contract of WithExplain:
// a costed search reports its strategy, the plan estimate, and one
// piece row per cover piece with both estimated and actual entry
// counts; without Explain the search stays free of the extra counters.
func TestExplainStats(t *testing.T) {
	trees := shardCorpus(300)
	l := openLive(t, trees, 2, OpenOptions{})
	ctx := context.Background()
	const q = "NP(DT)(NN)"

	plain, err := l.Search(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Pieces != nil {
		t.Fatalf("plain search carries piece stats: %+v", plain.Stats.Pieces)
	}
	if plain.Count == 0 {
		t.Fatalf("%q matches nothing; pick a better fixture query", q)
	}

	res, err := l.Search(ctx, q, SearchOpts{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Strategy == "" {
		t.Fatal("explain on a freshly built index reports no strategy (stats missing?)")
	}
	if st.EstimatedRows == 0 {
		t.Fatal("explain reports zero estimated rows on a costed plan")
	}
	if len(st.Pieces) == 0 {
		t.Fatal("explain reports no pieces")
	}
	var decoded uint64
	for _, p := range st.Pieces {
		if p.Key == "" {
			t.Fatalf("piece with empty key: %+v", st.Pieces)
		}
		if p.Est == 0 {
			t.Fatalf("piece %q has no estimate", p.Key)
		}
		decoded += p.Actual
	}
	if decoded == 0 {
		t.Fatal("explain reports zero actually decoded entries on a matching query")
	}
	if res.Count != plain.Count || !reflect.DeepEqual(res.Matches, plain.Matches) {
		t.Fatal("explain changed the result")
	}

	// The bounded path reports the stream strategy it actually ran.
	lres, err := l.Search(ctx, q, SearchOpts{Limit: 3, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if lres.Stats.Strategy != "stream" {
		t.Fatalf("bounded explain strategy %q, want stream", lres.Stats.Strategy)
	}
}

// TestRootSplitPlansRepeatNoPiece holds every root-split plan of the WH
// and FB-70 queries, costed against a 2000-tree index and uncosted, to
// distinct (Root, Key) pieces: a piece equal to an earlier one on the
// same root — twin siblings, or widening, made them one key — is
// dropped (planner's TestRepeatedRootSplitPieceDropped shows the drop).
func TestRootSplitPlansRepeatNoPiece(t *testing.T) {
	trees := shardCorpus(2000)
	l := openLive(t, trees, 1, OpenOptions{})
	e, err := l.pin()
	if err != nil {
		t.Fatal(err)
	}
	defer e.release()
	type rootKey struct {
		root int
		key  subtree.Key
	}
	for _, q := range planMissQueries(trees) {
		for _, stats := range []*planner.Stats{e.stats, nil} {
			pl, err := planner.New(q, e.mss, postings.RootSplit, stats)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			seen := map[rootKey]bool{}
			for _, pp := range pl.Pieces {
				rk := rootKey{pp.Root, pp.Key}
				if seen[rk] {
					t.Fatalf("%s (costed %v): piece %s on node %d repeats", q, stats != nil, pp.Key, pp.Root)
				}
				seen[rk] = true
			}
		}
	}
}
