package core

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/join"
	"repro/internal/lingtree"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// skipLists builds the inputs of A(B) for the skip tests: A holds a
// root in a sparse random subset of trees, B a run of 1 to 12 children
// in nearly every tree, so B's list spans many skip blocks and aligning
// on A's trees jumps over most of them.
func skipLists(rng *rand.Rand, trees int) (as, bs *postings.RootAccumulator) {
	as, bs = postings.NewRootAccumulator(true), postings.NewRootAccumulator(true)
	every := 1 + rng.Intn(400)
	for tid := uint32(0); tid < uint32(trees); tid++ {
		if rng.Intn(every) == 0 {
			as.Add(tid, postings.NodeRef{Pre: 0, Post: 1 << 20, Level: 0})
		}
		if rng.Intn(20) == 0 {
			continue
		}
		for j := uint32(1); j <= 1+uint32(rng.Intn(12)); j++ {
			bs.Add(tid, postings.NodeRef{Pre: j, Post: j, Level: 1})
		}
	}
	return as, bs
}

// TestRootCursorSkipAgreesWithReference holds the stream over rootCursor,
// whose seek jumps skip blocks, to the same stream fed one entry at a
// time by the reference cursor, which cannot skip: the same matches and
// the same rows and per-relation reads. Tombstones are none, a few (so
// most blocks are jumped and some are walked) or many (so nearly every
// block is walked).
func TestRootCursorSkipAgreesWithReference(t *testing.T) {
	ctx := context.Background()
	q := query.MustParse("A(B)")
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 60; trial++ {
		trees := 1 + rng.Intn(6000)
		as, bs := skipLists(rng, trees)
		if as.Count() == 0 || bs.Count() == 0 {
			continue
		}
		var dead []uint32
		for tid, n := uint32(0), []int{0, 3, 40}[trial%3]; tid < uint32(trees) && n > 0; tid++ {
			if rng.Intn(trees) < n {
				dead = append(dead, tid)
			}
		}
		dels := newTombSet(dead)
		a, b := as.Bytes(), bs.Bytes()
		batch := []join.StreamRelation{
			{Name: "A", Slots: []int{0}, Blocks: &rootCursor{it: *postings.NewRootIterator(a), dels: dels.Scan()}},
			{Name: "B", Slots: []int{1}, Blocks: &rootCursor{it: *postings.NewRootIterator(b), dels: dels.Scan()}},
		}
		entry := []join.StreamRelation{
			{Name: "A", Slots: []int{0}, Cursor: &refRootCursor{it: postings.NewRootIterator(a), dels: dels}},
			{Name: "B", Slots: []int{1}, Cursor: &refRootCursor{it: postings.NewRootIterator(b), dels: dels}},
		}
		var matches [2][]Match
		var rows, readA, readB [2]int
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
			rows[i], readA[i], readB[i] = s.Rows(), s.SourceRead(0), s.SourceRead(1)
		}
		if !slices.Equal(matches[0], matches[1]) || rows[0] != rows[1] || readA[0] != readA[1] || readB[0] != readB[1] {
			t.Fatalf("trial %d (%d trees, %d tombstones): skipping cursor %d matches, %d rows, reads %d+%d; reference %d, %d, %d+%d",
				trial, trees, len(dead), len(matches[0]), rows[0], readA[0], readB[0], len(matches[1]), rows[1], readA[1], readB[1])
		}
	}
}

// cancelOnSkip wraps a rootCursor and cancels the query inside its
// at-th Skip, counting every Skip the stream makes.
type cancelOnSkip struct {
	*rootCursor
	at, skips int
	cancel    context.CancelFunc
}

func (c *cancelOnSkip) Skip(target uint32) int {
	if c.skips++; c.skips == c.at {
		c.cancel()
	}
	return c.rootCursor.Skip(target)
}

// TestStreamCancelMidSkip is TestStreamCancelMidSeek for a cursor that
// seeks: one SkipTo can pass thousands of entries, so the stream must
// poll the context between skips, and a cancel that arrives during one
// must stop the stream before the next.
func TestStreamCancelMidSkip(t *testing.T) {
	q := query.MustParse("A(B)")
	as, bs := postings.NewRootAccumulator(true), postings.NewRootAccumulator(true)
	const trees, gap = 100000, 1000
	for tid := uint32(0); tid < trees; tid++ {
		if tid%gap == gap-1 {
			as.Add(tid, postings.NodeRef{Pre: 0, Post: 9, Level: 0})
		}
		for j := uint32(1); j <= 3; j++ {
			bs.Add(tid, postings.NodeRef{Pre: j, Post: j, Level: 1})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b := &cancelOnSkip{rootCursor: &rootCursor{it: *postings.NewRootIterator(bs.Bytes())}, at: 5, cancel: cancel}
	s, err := join.NewStreamOpts(ctx, q, []join.StreamRelation{
		{Name: "A", Slots: []int{0}, Blocks: &rootCursor{it: *postings.NewRootIterator(as.Bytes())}},
		{Name: "B", Slots: []int{1}, Blocks: b},
	}, join.Options{Order: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		matches++
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", s.Err())
	}
	if b.skips != b.at || matches >= b.at {
		t.Fatalf("after a cancel in skip %d: %d skips, %d matches", b.at, b.skips, matches)
	}
	if read := s.SourceRead(1); read > b.at*3*gap {
		t.Fatalf("B read %d entries after a cancel in its skip %d, the skips cover %d", read, b.at, b.at*3*gap)
	}
}

// TestTombstonesInSkippedBlocksMatchRebuild holds an uncompacted
// segment with tombstones to a rebuild of its survivors: its tombstones fall inside gaps the
// seeks jump and beside trees that match, and every query must return
// the matches, posting fetches, join rows and per-piece reads of a
// build over the survivors alone (matches compared after renumbering).
func TestTombstonesInSkippedBlocksMatchRebuild(t *testing.T) {
	ctx := context.Background()
	trees := shardCorpus(1500)
	l := openLive(t, trees, 1, OpenOptions{})
	queries := []string{"S(//NN(rodent))", "NP(DT)(NN(plan))", "VP(VBZ)(NP(//NN(leader)))", "S(NP(//NN(animal)))(VP)", "NP(DT)(NN)"}

	// Tombstones: a sparse stride, which leaves most skip blocks whole,
	// and the first few matching trees of every query.
	dead := map[int]bool{}
	for tid := 50; tid < len(trees); tid += 97 {
		dead[tid] = true
	}
	for _, q := range queries {
		res, err := l.Search(ctx, q, SearchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range res.Matches {
			if i%3 == 0 && i < 12 {
				dead[int(m.TID)] = true
			}
		}
	}
	var del []int
	for tid := range dead {
		del = append(del, tid)
	}
	if _, err := l.Delete(ctx, del); err != nil {
		t.Fatal(err)
	}
	var survivors []*lingtree.Tree
	renum := make([]uint32, len(trees))
	for _, tr := range trees {
		if dead[tr.TID] {
			continue
		}
		ct := *tr
		ct.TID = len(survivors)
		renum[tr.TID] = uint32(ct.TID)
		survivors = append(survivors, &ct)
	}
	rebuilt := openLive(t, survivors, 1, OpenOptions{})

	longest := 0
	for _, q := range queries {
		want, err := rebuilt.Search(ctx, q, SearchOpts{Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.Search(ctx, q, SearchOpts{Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Matches {
			got.Matches[i].TID = renum[got.Matches[i].TID]
		}
		if len(want.Matches) == 0 || !slices.Equal(got.Matches, want.Matches) {
			t.Fatalf("%q: tombstoned segment returned %d matches, rebuild %d", q, len(got.Matches), len(want.Matches))
		}
		if got.Stats.PostingFetches != want.Stats.PostingFetches || got.Stats.JoinRows != want.Stats.JoinRows {
			t.Fatalf("%q: tombstoned segment %d fetches and %d join rows, rebuild %d and %d", q,
				got.Stats.PostingFetches, got.Stats.JoinRows, want.Stats.PostingFetches, want.Stats.JoinRows)
		}
		for i, p := range want.Stats.Pieces {
			// Estimates come from build-time statistics, which still
			// count the tombstoned trees; the reads must not.
			if g := got.Stats.Pieces[i]; g.Key != p.Key || g.Actual != p.Actual {
				t.Fatalf("%q: tombstoned segment read %d of piece %s, rebuild %d of %s", q, g.Actual, g.Key, p.Actual, p.Key)
			}
			n, err := rebuilt.LookupKey(subtree.Key(p.Key))
			if err != nil {
				t.Fatal(err)
			}
			longest = max(longest, n)
		}
	}
	// Blocks close at the first tree boundary after RootSkipBlock
	// records, and no tree holds RootSkipBlock postings of one key, so a
	// list of this length has at least four blocks.
	if longest < 8*postings.RootSkipBlock {
		t.Fatalf("the longest list the queries read has %d postings, too few for four skip blocks", longest)
	}
}

// TestIndexWithoutSkipTablesRefused pins the format break: a root-split
// index whose leaves were written before posting lists carried skip
// tables — its meta has no root_skip_block — is refused at open, single
// or sharded, with the instruction to rebuild; the other codings, whose
// lists did not change, still open.
func TestIndexWithoutSkipTablesRefused(t *testing.T) {
	trees := shardCorpus(60)
	stripMeta := func(dir string) {
		t.Helper()
		p := filepath.Join(dir, metaFileName)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		if m["root_skip_block"] != nil && m["root_skip_block"] != float64(postings.RootSkipBlock) {
			t.Fatalf("%s: root_skip_block = %v", p, m["root_skip_block"])
		}
		delete(m, "root_skip_block")
		if b, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		coding postings.Coding
		shards int
	}{{postings.RootSplit, 1}, {postings.RootSplit, 3}, {postings.SubtreeInterval, 1}, {postings.FilterBased, 2}} {
		dir := filepath.Join(t.TempDir(), "ix")
		if _, err := BuildSharded(dir, trees, Options{MSS: 2, Coding: tc.coding}, tc.shards); err != nil {
			t.Fatal(err)
		}
		stripMeta(dir)
		for s := 0; tc.shards > 1 && s < tc.shards; s++ {
			stripMeta(filepath.Join(dir, shardDirName(s)))
		}
		l, err := OpenLive(dir, OpenOptions{})
		if tc.coding != postings.RootSplit {
			if err != nil {
				t.Fatalf("%v, %d shards: %v", tc.coding, tc.shards, err)
			}
			l.Close()
			continue
		}
		if err == nil {
			l.Close()
			t.Fatalf("root-split, %d shards: an index without skip tables opened", tc.shards)
		}
		if !strings.Contains(err.Error(), "rebuild the index") {
			t.Fatalf("root-split, %d shards: %v, want it to say rebuild the index", tc.shards, err)
		}
	}
}
