package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/lingtree"
	"repro/internal/planner"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// modelSeeds are the histories TestModelHistories runs, one per
// coding and layout pair it assigns by position. They were picked so
// that every coding sees a compaction followed by an update and a
// repeated delete, and the one-shard format-2 roots (positions 5 and
// 11) are promoted by a two-shard append. A failing history is the
// subtest named after its seed; its log lists the operations applied.
var modelSeeds = []int64{4, 134, 58, 67, 204, 106, 162, 12, 116, 81, 225, 26}

// modelLayouts are the initial layouts: the shard count of a
// BuildSharded root (1 writes format 1, more write format 2), or 0 for
// a one-shard format-2 root, which BuildSharded never writes but the
// format allows.
var modelLayouts = []int{1, 2, 3, 4, 7, 0}

// TestModelHistories is the engine's model test. Each history builds a
// random corpus in one coding and layout, then applies 5–10 random
// lifecycle operations to one writer handle: append, delete (tombstoned
// tids included), update, compact, a reader reload, close and reopen.
// The model is the live trees in global tid order. After the build and
// after every operation:
//
//  1. the writer (MmapAuto) answers search, count-only, a limit/offset
//     window, a drained stream and a limited batch with the exact
//     matcher's matches over the model — a superset on root-split
//     queries with same-label siblings (the "codings agree" invariant
//     in docs/ARCHITECTURE.md), with which the other paths must then
//     agree;
//  2. a reader on the same directory (MmapOff), following the writer by
//     Reload, gives identical results and work counters, keys, and
//     cumulative posting fetches;
//  3. a fresh build of the live trees serves the same matches, keys,
//     key counts and trees; while nothing is tombstoned it holds one
//     shard per writer leaf and must also do the same work — the
//     layouts differ, the leaves do not;
//  4. the writer's tree, segment, shard and generation counts and the
//     root's format version are the model's;
//  5. after the build and after the last operation, a fresh handle
//     under the syntactic join order answers as the costed writer does,
//     outside root-split's twin class (TestTwinClassAnswersBracketed
//     covers that class).
func TestModelHistories(t *testing.T) {
	codings := []postings.Coding{postings.RootSplit, postings.SubtreeInterval, postings.FilterBased}
	for i, seed := range modelSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			coding := codings[(i+i/len(modelLayouts))%len(codings)]
			runHistory(t, seed, coding, modelLayouts[i%len(modelLayouts)])
		})
	}
}

// history is one model history: the handles under test and the model
// they must agree with.
type history struct {
	t      *testing.T
	rng    *rand.Rand
	dir    string
	opt    Options
	w, r   *Live // the writer (mmap) and the reader that follows it (pread)
	ref    *Live // the build of the model at generation refGen
	refGen int

	trees  []*lingtree.Tree // every stored tree; TID is its global tid
	dead   map[int]bool     // tombstoned tids
	gen    int
	format int
	segs   [][]int // the tree counts of each live segment's leaves

	matched int // queries with exact matches, so far
}

func runHistory(t *testing.T, seed int64, coding postings.Coding, layout int) {
	rng := rand.New(rand.NewSource(seed))
	h := &history{t: t, rng: rng, dir: filepath.Join(t.TempDir(), "ix"), dead: map[int]bool{},
		opt: Options{MSS: 1 + rng.Intn(4), Coding: coding}}
	h.trees = randomForest(rng, 40+rng.Intn(81))
	h.segs, h.format = [][]int{leafSizes(len(h.trees), max(layout, 1))}, FormatSharded
	if layout == 0 {
		buildRoot(t, h.dir, [][]*lingtree.Tree{h.trees}, h.opt)
	} else if _, err := BuildSharded(h.dir, h.trees, h.opt, layout); err != nil {
		t.Fatal(err)
	}
	if layout == 1 {
		h.format = FormatSingle
	}
	t.Logf("%v, mss %d, %d trees, layout %d", coding, h.opt.MSS, len(h.trees), layout)
	h.reopen()
	h.check("build", true)
	ops := 5 + rng.Intn(6)
	for i := 1; i <= ops; i++ {
		what := h.step()
		t.Logf("op %d: %s", i, what)
		h.check(fmt.Sprintf("op %d (%s)", i, what), i == ops)
	}
	if h.matched == 0 {
		t.Fatal("vacuous history: no query had an exact match")
	}
}

// reopen closes both handles, if open, and opens them again together,
// so their cumulative counters restart at the same point.
func (h *history) reopen() {
	if h.w != nil {
		h.w.Close()
		h.r.Close()
	}
	h.w = openDir(h.t, h.dir, OpenOptions{Mmap: MmapAuto})
	h.r = openDir(h.t, h.dir, OpenOptions{Mmap: MmapOff})
}

// step applies one random operation to the writer and the model, lets
// the reader follow, and describes what it did.
func (h *history) step() string {
	t, ctx := h.t, context.Background()
	op := h.rng.Intn(6)
	var del []int
	newly := 0
	if op == 1 || op == 2 {
		if del, newly = h.victims(); len(del) == 0 {
			op = 0
		}
	}
	var what string
	switch op {
	case 0, 2:
		batch, shards := randomForest(h.rng, 3+h.rng.Intn(20)), 1+h.rng.Intn(2)
		if op == 0 {
			if _, err := h.w.Append(ctx, batch, shards); err != nil {
				t.Fatalf("append: %v", err)
			}
			what = fmt.Sprintf("append %d trees in %d shards", len(batch), shards)
		} else {
			if _, n, err := h.w.Update(ctx, del, batch, shards); err != nil || n != newly {
				t.Fatalf("update: %d newly deleted, err %v; want %d", n, err, newly)
			}
			what = fmt.Sprintf("update deleting %v, appending %d trees in %d shards", del, len(batch), shards)
		}
		h.promote()
		h.gen++
		h.kill(del)
		for _, tr := range batch {
			ct := *tr
			ct.TID = len(h.trees)
			h.trees = append(h.trees, &ct)
		}
		h.segs = append(h.segs, leafSizes(len(batch), shards))
	case 1:
		if n, err := h.w.Delete(ctx, del); err != nil || n != newly {
			t.Fatalf("delete %v: %d newly deleted, err %v; want %d", del, n, err, newly)
		}
		h.promote()
		if newly > 0 {
			h.gen++
		}
		h.kill(del)
		what = fmt.Sprintf("delete %v (%d newly)", del, newly)
	case 3:
		shards := 1 + h.rng.Intn(3)
		ran, _, err := h.w.Compact(ctx, CompactOptions{Shards: shards})
		if want := h.gen > 0 && (len(h.segs) > 1 || len(h.dead) > 0); err != nil || ran != want {
			t.Fatalf("compact: ran %v, err %v; want ran %v", ran, err, want)
		}
		if ran {
			var live []*lingtree.Tree
			for _, tr := range h.live() {
				ct := *tr
				ct.TID = len(live)
				live = append(live, &ct)
			}
			h.trees, h.dead, h.gen = live, map[int]bool{}, h.gen+1
			h.segs = [][]int{leafSizes(len(live), shards)}
		}
		what = fmt.Sprintf("compact into %d shards (ran %v)", shards, ran)
	case 4:
		// A legacy root cannot be reloaded, so the reader is reopened
		// instead — with the writer, to keep their counters aligned.
		what = "reopen the legacy root"
		if h.gen == 0 {
			h.reopen()
			break
		}
		if changed, err := h.r.Reload(); err != nil || changed {
			t.Fatalf("reload of an unchanged manifest: changed %v, err %v", changed, err)
		}
		what = "reload the reader"
	case 5:
		h.reopen()
		what = "close and reopen"
	}
	if h.r.Generation() != h.gen {
		if changed, err := h.r.Reload(); err != nil || !changed {
			t.Fatalf("reader reload to generation %d: changed %v, err %v", h.gen, changed, err)
		}
	}
	return what
}

// promote records the promotion of a legacy root that the first
// publish onto it commits as generation 1.
func (h *history) promote() {
	if h.gen == 0 {
		h.gen, h.format = 1, FormatSegmented
	}
}

// kill tombstones tids in the model.
func (h *history) kill(tids []int) {
	for _, tid := range tids {
		h.dead[tid] = true
	}
}

// leafSizes returns the tree counts of the leaves BuildSharded writes
// for n trees in the given number of shards.
func leafSizes(n, shards int) []int {
	bounds := ShardBounds(n, min(shards, n))
	sizes := make([]int, len(bounds)-1)
	for i := range sizes {
		sizes[i] = bounds[i+1] - bounds[i]
	}
	return sizes
}

// buildRoot writes a format-2 root at dir whose shards are exactly the
// given leaves: BuildSharded writes only even splits, and never one
// shard.
func buildRoot(t *testing.T, dir string, leaves [][]*lingtree.Tree, opt Options) {
	t.Helper()
	root := Meta{FormatVersion: FormatSharded, RootSkipBlock: opt.rootSkipBlock(), MSS: opt.MSS, Coding: opt.Coding}
	for _, trees := range leaves {
		m, err := Build(filepath.Join(dir, shardDirName(root.Shards)), trees, opt)
		if err != nil {
			t.Fatal(err)
		}
		root.Shards++
		root.NumTrees += m.NumTrees
	}
	if err := writeMeta(dir, &root); err != nil {
		t.Fatal(err)
	}
}

// victims draws up to four distinct tids to delete, keeping at least
// five trees live, and sometimes one tombstoned tid, whose delete must
// be a no-op. It returns them with the number not yet tombstoned.
func (h *history) victims() (tids []int, newly int) {
	live := len(h.trees) - len(h.dead)
	seen := map[int]bool{}
	for range 1 + h.rng.Intn(4) {
		tid := h.rng.Intn(len(h.trees))
		if seen[tid] || !h.dead[tid] && live-newly <= 5 {
			continue
		}
		if !h.dead[tid] {
			newly++
		}
		seen[tid] = true
		tids = append(tids, tid)
	}
	if len(h.dead) > 0 && h.rng.Intn(2) == 0 {
		for tid, skip := 0, h.rng.Intn(len(h.dead)); tid < len(h.trees); tid++ {
			if h.dead[tid] && !seen[tid] {
				if skip--; skip < 0 {
					tids = append(tids, tid)
					break
				}
			}
		}
	}
	return tids, newly
}

// live returns the model: the live trees in global tid order.
func (h *history) live() []*lingtree.Tree {
	var out []*lingtree.Tree
	for _, tr := range h.trees {
		if !h.dead[tr.TID] {
			out = append(out, tr)
		}
	}
	return out
}

// modelAnswer is what one handle answered to one query: search,
// count-only search, the {Limit: 3, Offset: 1} window, a drained
// stream and the window of a limited batch, with each path's posting
// fetches and join rows.
type modelAnswer struct {
	full, window, stream, batch     []Match
	count, countOnly, streamedCount int
	work                            [5][2]uint64
}

// modelWindow is the window every windowed path asks for.
var modelWindow = SearchOpts{Limit: 3, Offset: 1}

// answer runs srcs through every read path of l, the handle named
// who.
func answer(t *testing.T, who string, l *Live, srcs []string) []modelAnswer {
	t.Helper()
	ctx := context.Background()
	batch, err := l.SearchBatch(ctx, srcs, modelWindow)
	if err != nil {
		t.Fatalf("%s: batch: %v", who, err)
	}
	out := make([]modelAnswer, len(srcs))
	for i, src := range srcs {
		var rs []*Result
		for _, opts := range []SearchOpts{{}, {CountOnly: true}, modelWindow} {
			r, err := l.Search(ctx, src, opts)
			if err != nil {
				t.Fatalf("%s: %s %+v: %v", who, src, opts, err)
			}
			rs = append(rs, r)
		}
		s, err := l.SearchStream(ctx, src, SearchOpts{})
		if err != nil {
			t.Fatalf("%s: stream %s: %v", who, src, err)
		}
		a := &out[i]
		a.stream, a.streamedCount = drainStream(t, s)
		a.full, a.count, a.countOnly = nonEmpty(rs[0].Matches), rs[0].Count, rs[1].Count
		a.window, a.batch = nonEmpty(rs[2].Matches), nonEmpty(batch[i].Matches)
		for j, r := range append(rs, s, batch[i]) {
			a.work[j] = [2]uint64{r.Stats.PostingFetches, r.Stats.JoinRows}
		}
	}
	return out
}

// nonEmpty maps an empty match list to nil, so answers compare with
// reflect.DeepEqual.
func nonEmpty(ms []Match) []Match {
	if len(ms) == 0 {
		return nil
	}
	return ms
}

// withoutWork returns a with its work counters cleared.
func withoutWork(a modelAnswer) modelAnswer {
	a.work = [5][2]uint64{}
	return a
}

// check runs the five checks of TestModelHistories after one step;
// syntactic adds the fresh handle under the syntactic join order.
func (h *history) check(step string, syntactic bool) {
	t := h.t
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after %s: %s", step, fmt.Sprintf(format, args...))
	}
	live := h.live()
	var qs []*query.Query
	for range 6 {
		qs = append(qs, randomQuery(h.rng))
	}
	for _, src := range shardQueries {
		qs = append(qs, query.MustParse(src))
	}
	srcs := make([]string, len(qs))
	for i, q := range qs {
		srcs[i] = q.Canonical()
	}
	twin := func(i int) bool { return h.opt.Coding == postings.RootSplit && hasSameLabelSiblings(qs[i]) }

	// 4. Handle state.
	meta, err := readMeta(h.dir)
	if err != nil {
		t.Fatal(err)
	}
	c, leaves := h.w.Counters(), 0
	for _, seg := range h.segs {
		leaves += len(seg)
	}
	got := fmt.Sprint(h.w.Meta().NumTrees, c.LiveTrees, c.TombstonedTrees, h.w.Segments(), h.w.NumShards(), h.w.Generation(), meta.FormatVersion)
	if want := fmt.Sprint(len(h.trees), len(live), len(h.dead), len(h.segs), leaves, h.gen, h.format); got != want {
		fail("trees, live, tombstoned, segments, shards, generation, format = %s, want %s", got, want)
	}

	// 1. The writer against the exact matcher.
	wa := answer(t, "writer", h.w, srcs)
	for i, q := range qs {
		want, a := groundTruth(live, q), wa[i]
		if len(want) > 0 {
			h.matched++
		}
		if twin(i) {
			if !subsetOf(want, a.full) {
				fail("%s: search %v misses exact matches %v", srcs[i], trunc(a.full), trunc(want))
			}
			want = a.full
		}
		if !reflect.DeepEqual(a.full, want) || a.count != len(want) {
			k := 0
			for k < min(len(a.full), len(want)) && a.full[k] == want[k] {
				k++
			}
			fail("%s: search %d matches (count %d), want %d; from match %d on: %v, want %v",
				srcs[i], len(a.full), a.count, len(want), k, trunc(a.full[k:]), trunc(want[k:]))
		}
		win := nonEmpty(want[min(1, len(want)):min(4, len(want))])
		if a.countOnly != len(want) || !reflect.DeepEqual(a.window, win) || !reflect.DeepEqual(a.stream, want) ||
			a.streamedCount != len(want) || !reflect.DeepEqual(a.batch, win) {
			fail("%s: count-only %d, window %v, stream %d, batch %v; want %d, %v", srcs[i],
				a.countOnly, a.window, a.streamedCount, a.batch, len(want), win)
		}
		if a.work[4][1] > a.work[2][1] {
			fail("%s: windowed batch spent %d join rows, windowed search %d", srcs[i], a.work[4][1], a.work[2][1])
		}
	}

	// 2. The reader against the writer.
	wk := collectKeys(t, h.w)
	for i, a := range answer(t, "reader", h.r, srcs) {
		if !reflect.DeepEqual(a, wa[i]) {
			fail("%s: pread reader %+v, mmap writer %+v", srcs[i], a, wa[i])
		}
	}
	if rk := collectKeys(t, h.r); !reflect.DeepEqual(rk, wk) {
		fail("reader has %d keys, writer %d", len(rk), len(wk))
	}
	if wf, rf := h.w.Counters().PostingFetches, h.r.Counters().PostingFetches; wf != rf {
		fail("cumulative posting fetches: writer %d, reader %d", wf, rf)
	}
	if n := h.w.Counters().MmapLeaves; runtime.GOOS == "linux" && n == 0 {
		fail("the MmapAuto writer maps no leaves")
	}
	if n := h.r.Counters().MmapLeaves; n != 0 {
		fail("the MmapOff reader maps %d leaves", n)
	}

	// 3. The writer against a fresh build of the model: while nothing is
	// tombstoned, one shard per writer leaf, whose work counters must
	// then match; otherwise one shard of the live trees. It is built
	// again whenever a publish changed the model: every publish moves
	// the generation.
	if h.ref == nil || h.refGen != h.gen {
		leaves := [][]*lingtree.Tree{live}
		if len(h.dead) == 0 {
			leaves = nil
			first := 0
			for _, n := range slices.Concat(h.segs...) {
				leaves = append(leaves, h.trees[first:first+n])
				first += n
			}
		}
		refDir := filepath.Join(t.TempDir(), "ref")
		buildRoot(t, refDir, leaves, h.opt)
		if h.ref != nil {
			h.ref.Close()
		}
		h.ref, h.refGen = openDir(t, refDir, OpenOptions{}), h.gen
	}
	ref := h.ref
	refTID := map[int]int{}
	for i, tr := range live {
		refTID[tr.TID] = i
	}
	global := func(ms []Match) []Match {
		out := slices.Clone(ms)
		for j := range out {
			out[j].TID = uint32(live[out[j].TID].TID)
		}
		return out
	}
	refAns := answer(t, "reference", ref, srcs)
	for i := range refAns {
		a := &refAns[i]
		a.full, a.window, a.stream, a.batch = global(a.full), global(a.window), global(a.stream), global(a.batch)
		if len(h.dead) == 0 {
			if !reflect.DeepEqual(refAns[i], wa[i]) {
				fail("%s: reference %+v, writer %+v", srcs[i], refAns[i], wa[i])
			}
		} else if !twin(i) && !reflect.DeepEqual(withoutWork(refAns[i]), withoutWork(wa[i])) {
			fail("%s: reference %+v, writer %+v", srcs[i], refAns[i], wa[i])
		}
	}
	if rk := collectKeys(t, ref); !reflect.DeepEqual(rk, wk) {
		fail("reference has %d keys, writer %d", len(rk), len(wk))
	}
	for i, kc := range append(wk, keyCount{Key: "ZZZ"}) {
		if i%7 != 0 && kc.Key != "ZZZ" {
			continue
		}
		for _, l := range []*Live{h.w, h.r, ref} {
			if n, err := l.LookupKey(kc.Key); err != nil || n != kc.Count {
				fail("LookupKey(%s) = %d, %v; Keys counts %d", kc.Key, n, err, kc.Count)
			}
		}
	}
	first := 0
	for _, n := range slices.Concat(h.segs...) {
		for _, tid := range []int{first, first + n - 1} {
			tr, err := h.w.Tree(tid)
			if h.dead[tid] {
				if err == nil {
					fail("Tree(%d) of a deleted tree succeeded", tid)
				}
				continue
			}
			want, err2 := ref.Tree(refTID[tid])
			if err != nil || err2 != nil || tr.TID != tid {
				fail("Tree(%d): err %v, reference err %v", tid, err, err2)
			}
			ct := *tr
			ct.TID = want.TID
			if !reflect.DeepEqual(&ct, want) {
				fail("Tree(%d) differs from the reference's tree %d", tid, want.TID)
			}
		}
		first += n
	}

	// 5. Costed against syntactic join order. Plans live on the epoch,
	// so only a fresh handle plans every query under the ablation.
	if !syntactic {
		return
	}
	planner.UseSyntacticOrder = true
	defer func() { planner.UseSyntacticOrder = false }()
	syn := openDir(t, h.dir, OpenOptions{})
	defer syn.Close()
	for i, a := range answer(t, "syntactic", syn, srcs) {
		if !twin(i) && !reflect.DeepEqual(withoutWork(a), withoutWork(wa[i])) {
			fail("%s: syntactic order %+v, costed %+v", srcs[i], a, wa[i])
		}
	}
}

// keyCount is one (key, live posting count) pair of a key iteration.
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
	return reflect.DeepEqual(nonEmpty(a), nonEmpty(b))
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
