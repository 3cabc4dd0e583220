package core

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/corpusgen"
	"repro/internal/join"
	"repro/internal/lingtree"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/workload"
)

// streamTestQueries mix single-piece, multi-piece, //-edge and
// no-match shapes so the bounded path exercises structural and
// equality join steps.
var streamTestQueries = []string{
	"NP(DT)(NN)",
	"S(NP)(VP)",
	"S(//NN)",
	"S(NP(DT)(NN))(VP(VBZ))",
	"VP(//DT(the))",
	"ZZZ(QQQ)",
}

// TestBoundedEvalIsPrefixAllCodings asserts, for every coding, that a
// limited single-index search returns exactly the leading window of
// the unlimited search while producing strictly fewer join rows
// whenever it truncates — the in-shard half of limit pushdown — and
// never issuing more posting fetches.
func TestBoundedEvalIsPrefixAllCodings(t *testing.T) {
	trees := shardCorpus(500)
	ctx := context.Background()
	for coding, ix := range buildAll(t, trees, 3) {
		for _, src := range streamTestQueries {
			full, err := ix.Search(ctx, src, SearchOpts{})
			if err != nil {
				t.Fatalf("%v %s: %v", coding, src, err)
			}
			for _, limit := range []int{1, 3, 1 << 20} {
				for _, offset := range []int{0, 2} {
					res, err := ix.Search(ctx, src, SearchOpts{Limit: limit, Offset: offset})
					if err != nil {
						t.Fatalf("%v %s limit=%d: %v", coding, src, limit, err)
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
						t.Fatalf("%v %s limit=%d offset=%d: %d matches, want %d",
							coding, src, limit, offset, len(res.Matches), len(want))
					}
					for i := range want {
						if res.Matches[i] != want[i] {
							t.Fatalf("%v %s limit=%d offset=%d: match %d = %+v, want %+v",
								coding, src, limit, offset, i, res.Matches[i], want[i])
						}
					}
					if res.Stats.PostingFetches > full.Stats.PostingFetches {
						t.Fatalf("%v %s limit=%d: %d posting fetches, unlimited %d; limits must not regress fetches",
							coding, src, limit, res.Stats.PostingFetches, full.Stats.PostingFetches)
					}
					if res.Stats.Truncated {
						if res.Stats.JoinRows >= full.Stats.JoinRows {
							t.Fatalf("%v %s limit=%d offset=%d: truncated run produced %d join rows, unlimited %d; want strictly fewer",
								coding, src, limit, offset, res.Stats.JoinRows, full.Stats.JoinRows)
						}
						if res.Count > full.Count {
							t.Fatalf("%v %s: truncated count %d > total %d", coding, src, res.Count, full.Count)
						}
					} else if res.Count != full.Count {
						t.Fatalf("%v %s limit=%d offset=%d: untruncated count %d, want %d",
							coding, src, limit, offset, res.Count, full.Count)
					}
				}
			}
		}
	}
}

// TestSearchLazySkipsUnneededShardError is the drain-error regression
// test: a lookahead shard that fails *after* the target window is
// already satisfied must not fail the whole search — its results were
// never needed — while a shard the window still depends on failing
// must still surface an error.
func TestSearchLazySkipsUnneededShardError(t *testing.T) {
	trees := shardCorpus(600)
	ctx := context.Background()
	const q = "NP(DT)(NN)"

	healthy := openLive(t, trees, 4, OpenOptions{})
	full, err := healthy.Search(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 20 {
		t.Fatalf("vacuous corpus: only %d matches", len(full.Matches))
	}

	broken := openLive(t, trees, 4, OpenOptions{})
	// Compile the plan first: costing reads every leaf's stored count,
	// so a plan compiled after the sabotage fails before any shard is
	// evaluated. The drain under test runs on the stored plan.
	if _, err := broken.Search(ctx, q, SearchOpts{Limit: 2}); err != nil {
		t.Fatal(err)
	}
	// Sabotage shard 1 — inside the lazy lookahead window, so it is in
	// flight while shard 0 satisfies a small limit.
	if err := broken.cur.Load().set.leaves[1].tree.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := broken.Search(ctx, q, SearchOpts{Limit: 2})
	if err != nil {
		t.Fatalf("limited search satisfied by shard 0 failed on the unneeded shard 1: %v", err)
	}
	if len(res.Matches) != 2 || !res.Stats.Truncated {
		t.Fatalf("got %d matches truncated=%v, want the completed window flagged truncated",
			len(res.Matches), res.Stats.Truncated)
	}
	for i := range res.Matches {
		if res.Matches[i] != full.Matches[i] {
			t.Fatalf("window match %d = %+v, want %+v", i, res.Matches[i], full.Matches[i])
		}
	}

	// A window that genuinely needs the broken shard must still error.
	if _, err := broken.Search(ctx, q, SearchOpts{Limit: full.Count}); err == nil {
		t.Fatal("search depending on the broken shard unexpectedly succeeded")
	}
	// And so must the unlimited fan-out.
	if _, err := broken.Search(ctx, q, SearchOpts{}); err == nil {
		t.Fatal("unlimited search over the broken shard unexpectedly succeeded")
	}
}

// TestSearchStreamParity asserts the pending-result path: draining
// SearchStream yields exactly Search's window, finalizes equivalent
// stats, and an early break stops evaluation mid-way (later shards
// never consulted, fewer join rows than the full evaluation).
func TestSearchStreamParity(t *testing.T) {
	trees := shardCorpus(600)
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		h := openLive(t, trees, shards, OpenOptions{})
		for _, src := range streamTestQueries {
			for _, opts := range []SearchOpts{{}, {Limit: 3}, {Limit: 4, Offset: 2}} {
				want, err := h.Search(ctx, src, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := h.SearchStream(ctx, src, opts)
				if err != nil {
					t.Fatal(err)
				}
				var got []Match
				for m, err := range res.All() {
					if err != nil {
						t.Fatalf("shards=%d %s: stream error: %v", shards, src, err)
					}
					got = append(got, m)
				}
				if len(got) != len(want.Matches) {
					t.Fatalf("shards=%d %s %+v: stream yielded %d matches, Search %d",
						shards, src, opts, len(got), len(want.Matches))
				}
				for i := range got {
					if got[i] != want.Matches[i] {
						t.Fatalf("shards=%d %s: stream match %d = %+v, want %+v",
							shards, src, i, got[i], want.Matches[i])
					}
				}
				if want.Stats.Truncated != res.Stats.Truncated {
					t.Fatalf("shards=%d %s %+v: stream truncated=%v, Search %v",
						shards, src, opts, res.Stats.Truncated, want.Stats.Truncated)
				}
				// A second iteration of a consumed pending result yields
				// nothing rather than re-evaluating.
				for range res.All() {
					t.Fatalf("shards=%d %s: consumed stream yielded again", shards, src)
				}
			}
		}
	}
}

// TestSearchStreamStopsOnBreak asserts abandoning the iterator stops
// evaluation: on a sharded index, breaking after the first match
// leaves later shards unconsulted and their posting fetches unissued.
func TestSearchStreamStopsOnBreak(t *testing.T) {
	trees := shardCorpus(800)
	ctx := context.Background()
	h := openLive(t, trees, 4, OpenOptions{})
	const q = "NP(DT)(NN)"
	full, err := h.Search(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.SearchStream(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range res.All() {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n >= 1 {
			break
		}
	}
	if res.Stats.ShardsConsulted >= 4 {
		t.Fatalf("break after one match still consulted %d shards", res.Stats.ShardsConsulted)
	}
	if !res.Stats.Truncated {
		t.Fatal("abandoned stream must report truncation")
	}
	if res.Stats.PostingFetches >= full.Stats.PostingFetches {
		t.Fatalf("abandoned stream issued %d fetches, full search %d; want strictly fewer",
			res.Stats.PostingFetches, full.Stats.PostingFetches)
	}
	if res.Stats.JoinRows >= full.Stats.JoinRows {
		t.Fatalf("abandoned stream produced %d join rows, full search %d; want strictly fewer",
			res.Stats.JoinRows, full.Stats.JoinRows)
	}

	// On a SINGLE shard too: breaking mid-shard leaves no unconsulted
	// shards to infer truncation from, but the partial Count must still
	// be flagged — an unflagged Count claims exactness.
	h1 := openLive(t, trees, 1, OpenOptions{})
	res1, err := h1.SearchStream(ctx, q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range res1.All() {
		if err != nil {
			t.Fatal(err)
		}
		break
	}
	if !res1.Stats.Truncated {
		t.Fatalf("single-shard abandoned stream reported count %d with truncated=false", res1.Count)
	}
}

// TestSearchStreamRejectsCountOnly pins the API contract: counting is
// a materializing operation with no streaming form.
func TestSearchStreamRejectsCountOnly(t *testing.T) {
	h := openLive(t, shardCorpus(50), 1, OpenOptions{})
	if _, err := h.SearchStream(context.Background(), "NP", SearchOpts{CountOnly: true}); err == nil {
		t.Fatal("SearchStream accepted CountOnly")
	}
}

// eagerRelations decodes a subtree-interval plan's posting lists whole
// into join.Run's input, expanding every instance of a piece with
// identical-encoding siblings by all of the pattern's slot
// automorphisms up front — the eager reference intervalCursor's lazy
// expansion is held to. Tombstoned tids are dropped before expansion.
func eagerRelations(t *testing.T, leaf *Index, pl *Plan, dels *TombSet) []join.Relation {
	t.Helper()
	rels := make([]join.Relation, len(pl.Pieces))
	for i, pp := range pl.Pieces {
		_, payload, found, err := postingPayload(pp.Key, leaf.getPosting, postings.SubtreeInterval)
		if err != nil || !found {
			t.Fatalf("piece %q: found=%v err=%v", pp.Key, found, err)
		}
		rel := join.Relation{Name: string(pp.Key), Slots: pp.Slots}
		it := postings.NewIntervalIterator(payload)
		for it.Next() {
			if dels.Has(it.TID()) {
				continue
			}
			inst := slices.Clone(it.Nodes())
			if len(pp.Perms) <= 1 {
				rel.Entries = append(rel.Entries, postings.IntervalEntry{TID: it.TID(), Nodes: inst})
				continue
			}
			for _, pm := range pp.Perms {
				rec := make([]postings.NodeRef, len(pm))
				for j, src := range pm {
					rec[j] = inst[src]
				}
				rel.Entries = append(rel.Entries, postings.IntervalEntry{TID: it.TID(), Nodes: rec})
			}
		}
		if err := it.Err(); err != nil {
			t.Fatalf("piece %q: %v", pp.Key, err)
		}
		rels[i] = rel
	}
	return rels
}

// TestLazyPermExpansionAgreesWithEager holds the drained evalPlan — whose
// intervalCursor expands automorphic instances one variant at a time —
// to join.Run over the eagerly expanded relations, with and without
// tombstones, full and count-only. On the generated corpus (MSS 4) the
// first two queries are one twin piece each and the third joins a twin
// piece to a plain one; on the hand-built trees the // edge constrains
// only one of the twins, so trees whose stored instance has them the
// other way round match only through the swapped variant. On the last
// fixture one tree's 20 instances of a three-twin piece expand to 120
// variant entries, far more than the join's 32-entry window, so the
// cursor's blocks end between two variants of one instance.
func TestLazyPermExpansionAgreesWithEager(t *testing.T) {
	ctx := context.Background()
	const wideQuery, window = "X(N)(N)(N)", 32
	for _, fx := range []struct {
		trees   []*lingtree.Tree
		mss     int
		queries []string
	}{
		{shardCorpus(600), 4, []string{"NP(NN)(NN)", "NP(DT)(NN)(NN)", "S(NP(NN)(NN))(VP)"}},
		{[]*lingtree.Tree{
			lingtree.MustParse(0, "(X (N (A a)) (N b))"),
			lingtree.MustParse(1, "(X (N b) (N (A a)))"),
			lingtree.MustParse(2, "(X (N b) (N c))"),
			lingtree.MustParse(3, "(X (N (A a)) (N (A a)))"),
		}, 3, []string{"X(N)(N(//a))"}},
		{[]*lingtree.Tree{
			lingtree.MustParse(0, "(X (N a) (N b) (N c) (N d) (N e) (N f))"),
			lingtree.MustParse(1, "(X (N a) (N b) (N c))"),
			lingtree.MustParse(2, "(Y (X (N a) (N b) (N c)) (X (N d) (N e) (N f) (N g)))"),
		}, 4, []string{wideQuery}},
	} {
		dir := filepath.Join(t.TempDir(), "ix")
		if _, err := Build(dir, fx.trees, Options{MSS: fx.mss, Coding: postings.SubtreeInterval}); err != nil {
			t.Fatal(err)
		}
		l := openDir(t, dir, OpenOptions{})
		leaf := l.cur.Load().set.leaves[0]
		for _, src := range fx.queries {
			pl, _, err := l.planText(l.cur.Load(), src)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(pl.Pieces, func(pp PlanPiece) bool { return len(pp.Perms) > 1 }) {
				t.Fatalf("%s: no piece has automorphisms, the fixture is vacuous", src)
			}
			all, _, _, err := leaf.evalPlan(ctx, pl, leaf.getPosting, evalOpts{})
			if err != nil || len(all) < 3 {
				t.Fatalf("%s: %d matches, err %v; want at least 3", src, len(all), err)
			}
			// Tombstone every other matching tree.
			var dead []uint32
			for i, m := range all {
				if i%2 == 0 && (len(dead) == 0 || dead[len(dead)-1] != m.TID) {
					dead = append(dead, m.TID)
				}
			}
			if src == wideQuery {
				rels := eagerRelations(t, leaf, pl, nil)
				perTree := map[uint32]int{}
				for _, e := range rels[0].Entries {
					perTree[e.TID]++
				}
				if len(pl.Pieces) != 1 || perTree[0] <= window {
					t.Fatalf("%s: %d pieces, %d variant entries in tree 0; want one piece and more than %d", src, len(pl.Pieces), perTree[0], window)
				}
			}
			for _, dels := range []*TombSet{nil, newTombSet(dead)} {
				rels := eagerRelations(t, leaf, pl, dels)
				for _, countOnly := range []bool{false, true} {
					want, info, err := join.Run(ctx, pl.Query, rels, join.Options{CountOnly: countOnly, Order: pl.Order})
					if err != nil {
						t.Fatal(err)
					}
					got, n, rows, err := leaf.evalPlan(ctx, pl, leaf.getPosting, evalOpts{countOnly: countOnly, dels: dels})
					if err != nil {
						t.Fatal(err)
					}
					if n != info.Count || !slices.Equal(got, want) {
						t.Errorf("%s tombstones=%d countOnly=%v: drained %d matches (count %d), eager reference %d (count %d)",
							src, dels.Len(), countOnly, len(got), n, len(want), info.Count)
					}
					// A single list is drained whole, so the two drivers
					// must also have seen the same number of variants.
					if len(pl.Pieces) == 1 && rows != info.Rows {
						t.Errorf("%s tombstones=%d countOnly=%v: drain spent %d rows, eager reference %d",
							src, dels.Len(), countOnly, rows, info.Rows)
					}
				}
			}
		}
	}
}

// refRootCursor is the per-entry reference the batch rootCursor is held
// to: one posting per call through RootIterator.Next, tombstones by
// point lookup, every entry served through one scratch record.
type refRootCursor struct {
	it      *postings.RootIterator
	dels    *TombSet
	scratch [1]postings.NodeRef
}

func (c *refRootCursor) Next() (postings.IntervalEntry, bool) {
	for c.it.Next() {
		e := c.it.Entry()
		if c.dels.Has(e.TID) {
			continue
		}
		c.scratch[0] = e.NodeRef
		return postings.IntervalEntry{TID: e.TID, Nodes: c.scratch[:]}, true
	}
	return postings.IntervalEntry{}, false
}

func (c *refRootCursor) Err() error { return c.it.Err() }

// TestExplainActualsMatchPerEntryReference pins the work a search
// reports on a leaf with tombstones — SearchStats.JoinRows and explain's
// per-piece actual — to a join stream fed one entry at a time by the
// reference cursor over the same posting blobs and stopped after the
// same number of matches, for a full evaluation and under limit=10. The
// production path decodes blocks ahead of the join and filters
// tombstones per block; none of that read-ahead may show in the
// counters, and the matches must be the reference's.
func TestExplainActualsMatchPerEntryReference(t *testing.T) {
	ctx := context.Background()
	l := openLive(t, shardCorpus(1500), 1, OpenOptions{})
	const q0 = "NP(DT)(NN)"
	before, err := l.Search(ctx, q0, SearchOpts{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var dead []int
	for tid := 0; tid < 1500; tid++ {
		if tid%7 == 0 || (tid >= 100 && tid < 180) { // a scatter and a run longer than a window
			dead = append(dead, tid)
		}
	}
	if _, err := l.Delete(ctx, dead); err != nil {
		t.Fatal(err)
	}
	set := l.cur.Load().set
	leaf, dels := set.leaves[0], set.del(0)
	if after, err := l.Search(ctx, q0, SearchOpts{CountOnly: true}); err != nil || after.Count >= before.Count || dels.Len() != len(dead) {
		t.Fatalf("vacuous fixture: %d matches before the delete, %d after (err %v), %d tombstones", before.Count, after.Count, err, dels.Len())
	}
	for _, src := range []string{q0, "NP", "S(NP(DT)(NN))(VP(VBZ)(NP))", "S(NP)(VP(VBD)(NP)(PP(IN)(NP)))", "NP(NP(NN))(PP(IN)(NP(NNP)))"} {
		pl, _, err := l.planText(l.cur.Load(), src)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 10} {
			res, err := l.Search(ctx, src, SearchOpts{Limit: limit, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) < 10 {
				t.Fatalf("%s: %d matches; the fixture needs more than the limit", src, len(res.Matches))
			}
			rels := make([]join.StreamRelation, len(pl.Pieces))
			for i, pp := range pl.Pieces {
				_, payload, found, err := postingPayload(pp.Key, leaf.getPosting, postings.RootSplit)
				if err != nil || !found {
					t.Fatalf("%s piece %q: found=%v err=%v", src, pp.Key, found, err)
				}
				rels[i] = join.StreamRelation{Name: string(pp.Key), Slots: []int{pp.Root},
					Cursor: &refRootCursor{it: postings.NewRootIterator(payload), dels: dels}}
			}
			ref, err := join.NewStreamOpts(ctx, pl.Query, rels, join.Options{Order: pl.Order})
			if err != nil {
				t.Fatal(err)
			}
			var want []Match
			for limit == 0 || len(want) <= limit { // a bounded evaluation pulls one match past its window
				m, ok := ref.Next()
				if !ok {
					break
				}
				want = append(want, m)
			}
			if ref.Err() != nil {
				t.Fatal(ref.Err())
			}
			if limit > 0 {
				want = want[:min(limit, len(want))]
			}
			if !slices.Equal(res.Matches, want) {
				t.Errorf("%s limit=%d: %d matches, per-entry reference %d", src, limit, len(res.Matches), len(want))
			}
			if res.Stats.JoinRows != uint64(ref.Rows()) {
				t.Errorf("%s limit=%d: JoinRows %d, per-entry reference %d", src, limit, res.Stats.JoinRows, ref.Rows())
			}
			for i, p := range res.Stats.Pieces {
				if p.Actual != uint64(ref.SourceRead(i)) {
					t.Errorf("%s limit=%d piece %q: actual %d, per-entry reference %d", src, limit, p.Key, p.Actual, ref.SourceRead(i))
				}
			}
			if len(res.Stats.Pieces) != len(pl.Pieces) {
				t.Errorf("%s limit=%d: %d piece records for %d pieces", src, limit, len(res.Stats.Pieces), len(pl.Pieces))
			}
		}
	}
}

// TestRootCursorHeavyTreeAgreesWithReference joins two root-split lists
// in which one tree holds thousands of postings — far more than a stream
// window, which therefore doubles again and again around the run — with
// trees after it and tombstones on either side: the batch rootCursor must
// produce the matches and the counters of the per-entry reference over
// the same blobs, down to the last tree.
func TestRootCursorHeavyTreeAgreesWithReference(t *testing.T) {
	ctx := context.Background()
	q := query.MustParse("A(B)")
	as, bs := postings.NewRootAccumulator(true), postings.NewRootAccumulator(true)
	for tid := uint32(0); tid < 60; tid++ {
		n := uint32(3)
		if tid == 20 || tid == 41 {
			n = 6000 + tid
		}
		as.Add(tid, postings.NodeRef{Pre: 0, Post: 1 << 20, Level: 0})
		for j := uint32(1); j <= n; j++ {
			bs.Add(tid, postings.NodeRef{Pre: j, Post: j, Level: 1})
		}
	}
	for _, dels := range []*TombSet{nil, newTombSet([]uint32{0, 19, 21, 40, 59})} {
		batch := []join.StreamRelation{
			{Name: "A", Slots: []int{0}, Blocks: &rootCursor{it: *postings.NewRootIterator(as.Bytes()), dels: dels.Scan()}},
			{Name: "B", Slots: []int{1}, Blocks: &rootCursor{it: *postings.NewRootIterator(bs.Bytes()), dels: dels.Scan()}},
		}
		entry := []join.StreamRelation{
			{Name: "A", Slots: []int{0}, Cursor: &refRootCursor{it: postings.NewRootIterator(as.Bytes()), dels: dels}},
			{Name: "B", Slots: []int{1}, Cursor: &refRootCursor{it: postings.NewRootIterator(bs.Bytes()), dels: dels}},
		}
		var matches [2][]Match
		var rows, read [2]int
		for i, rels := range [][]join.StreamRelation{batch, entry} {
			s, err := join.NewStreamOpts(ctx, q, rels, join.Options{Order: []int{0, 1}})
			if err != nil {
				t.Fatal(err)
			}
			for m, ok := s.Next(); ok; m, ok = s.Next() {
				matches[i] = append(matches[i], m)
			}
			if s.Err() != nil {
				t.Fatal(s.Err())
			}
			rows[i], read[i] = s.Rows(), s.EntriesRead()
		}
		if len(matches[0]) != 60-dels.Len() || !slices.Equal(matches[0], matches[1]) || rows[0] != rows[1] || read[0] != read[1] {
			t.Errorf("tombstones=%d: batch cursor %d matches, %d rows, %d entries; per-entry reference %d, %d, %d; want %d matches",
				dels.Len(), len(matches[0]), rows[0], read[0], len(matches[1]), rows[1], read[1], 60-dels.Len())
		}
	}
}

// seekGaps replays the join stream's seek pattern over the tid lists of
// one plan's pieces — heads aligned leapfrog-fashion on the next common
// tid, each tree's run then passed over — and adds to hist how far each
// seek moved a lagging list: hist[g] counts the seeks that stepped over g
// entries. The replay stops once the tree stop has been gathered (the
// tree holding a bounded evaluation's last match), or when a list ends.
func seekGaps(lists [][]uint32, stop uint32, hist map[int]int) {
	pos := make([]int, len(lists))
	for {
		if pos[0] == len(lists[0]) {
			return
		}
		target := lists[0][pos[0]]
		for raised := true; raised; {
			raised = false
			for i, l := range lists {
				from := pos[i]
				for pos[i] < len(l) && l[pos[i]] < target {
					pos[i]++
				}
				if pos[i] > from {
					hist[pos[i]-from]++
				}
				if pos[i] == len(l) {
					return
				}
				if l[pos[i]] > target {
					target, raised = l[pos[i]], true
				}
			}
		}
		for i, l := range lists {
			for pos[i] < len(l) && l[pos[i]] == target {
				pos[i]++
			}
		}
		if target >= stop {
			return
		}
	}
}

// TestSeekGapTable measures what a posting list's skip table can save,
// on the benchmark's three kinds of traffic: the WH queries drained,
// lexical FB queries drained, and both under limit=10. A skip table lets
// a seek pass over whole blocks without decoding them, so it only helps
// the entries that lie in gaps of at least a block; the table (printed
// under -v; ARCHITECTURE.md quotes it) shows that on the WH queries
// nearly all stepped-over entries lie in gaps far shorter than 128
// entries, while lexical FB queries step over about half of theirs in
// such gaps — the traffic the skip tables are for.
func TestSeekGapTable(t *testing.T) {
	ctx := context.Background()
	trees := corpusgen.New(1).Trees(4000)
	l := openLive(t, trees, 1, OpenOptions{})
	leaf := l.cur.Load().set.leaves[0]

	var wh, fb []string
	for _, g := range workload.WHGroups {
		for _, q := range workload.WHQuerySet()[g] {
			wh = append(wh, q.String())
		}
	}
	gen, lc := corpusgen.New(1), workload.NewLabelClassifier(trees[:2000])
	var held []*lingtree.Tree
	for i := 0; i < 400; i++ {
		held = append(held, gen.Tree(1<<20+i))
	}
	seen, fb70 := map[string]bool{}, 0
	for draw := uint64(0); draw < 8; draw++ {
		if draw == 1 {
			fb70 = len(fb) // the first draw: one query per class and size
		}
		set := workload.FBQuerySet(lc, held, 1_000_003+draw)
		for _, cls := range workload.FBClasses {
			for _, q := range set[cls] {
				if c := q.Canonical(); !seen[c] {
					seen[c] = true
					fb = append(fb, q.String())
				}
			}
		}
	}

	measure := func(queries []string, limit int) (meanGap, longShare float64) {
		hist := map[int]int{}
		for _, src := range queries {
			pl, _, err := l.planText(l.cur.Load(), src)
			if err != nil {
				t.Fatal(err)
			}
			stop := ^uint32(0)
			if limit > 0 {
				ms, _, _, err := leaf.evalPlan(ctx, pl, leaf.getPosting, evalOpts{target: limit})
				if err != nil {
					t.Fatal(err)
				}
				if len(ms) > limit {
					stop = ms[limit].TID
				}
			}
			lists := make([][]uint32, len(pl.Pieces))
			for i, pp := range pl.Pieces {
				_, payload, found, err := postingPayload(pp.Key, leaf.getPosting, postings.RootSplit)
				if err != nil {
					t.Fatal(err)
				}
				if !found {
					lists = nil // an absent piece: the query reads nothing
					break
				}
				for it := postings.NewRootIterator(payload); it.Next(); {
					lists[i] = append(lists[i], it.Entry().TID)
				}
			}
			if lists != nil {
				seekGaps(lists, stop, hist)
			}
		}
		seeks, stepped, long := 0, 0, 0
		for gap, n := range hist {
			seeks += n
			stepped += gap * n
			if gap >= 128 {
				long += gap * n
			}
		}
		if seeks == 0 {
			t.Fatal("no seek moved a list: vacuous query set")
		}
		return float64(stepped) / float64(seeks), float64(long) / float64(stepped)
	}
	t.Logf("%-22s %9s %26s", "traffic", "mean gap", "entries in gaps >= 128")
	for _, row := range []struct {
		name    string
		queries []string
		limit   int
	}{
		{"WH, drained", wh, 0},
		{"FB lexical, drained", fb, 0},
		{"WH + FB-70, limit=10", append(slices.Clone(wh), fb[:fb70]...), 10},
	} {
		mean, long := measure(row.queries, row.limit)
		t.Logf("%-22s %9.1f %25.1f%%", row.name, mean, 100*long)
		// Decoding 3x fewer entries takes two thirds of them in long gaps.
		if long >= 2.0/3 {
			t.Errorf("%s: %.0f%% of stepped-over entries lie in gaps >= 128 (mean gap %.1f): skip headers could now cut decoding 3x, revisit ARCHITECTURE.md's note",
				row.name, 100*long, mean)
		}
	}
}
