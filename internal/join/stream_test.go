package join

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/postings"
	"repro/internal/query"
)

// streamOf builds a Stream over materialized relations via SliceCursor,
// joined in their syntactic connected order.
func streamOf(t *testing.T, q *query.Query, rels []Relation) *Stream {
	t.Helper()
	s, err := NewStreamOpts(context.Background(), q, sliceRelations(rels), Options{Order: syntacticOrder(q, rels)})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drain pulls every match out of a stream.
func drain(t *testing.T, s *Stream) []Match {
	t.Helper()
	var out []Match
	for {
		m, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// randomTreeRefs generates the NodeRefs of one structurally valid
// random tree: a random parent array turned into proper pre/post/level
// interval numbers. Tree-shaped (laminar) intervals matter — the
// Stack-Tree join's nesting-chain argument assumes them, so only
// inputs a real index could produce are in scope.
func randomTreeRefs(rng *rand.Rand, size int) []postings.NodeRef {
	children := make([][]int, size)
	for v := 1; v < size; v++ {
		p := rng.Intn(v)
		children[p] = append(children[p], v)
	}
	refs := make([]postings.NodeRef, size)
	pre, post := uint32(0), uint32(0)
	var walk func(v int, level uint32)
	walk = func(v int, level uint32) {
		refs[v].Pre = pre
		refs[v].Order = pre
		refs[v].Level = level
		pre++
		for _, c := range children[v] {
			walk(c, level+1)
		}
		refs[v].Post = post
		post++
	}
	walk(0, 0)
	return refs
}

// randomRelations builds query-shaped random relations: per tree, each
// query node's relation binds a few nodes sampled from one shared
// random tree, so intervals nest the way real posting lists do while
// labels, levels and axes still mismatch freely.
func randomRelations(rng *rand.Rand, q *query.Query) []Relation {
	nTrees := 1 + rng.Intn(8)
	rels := make([]Relation, q.Size())
	for v := 0; v < q.Size(); v++ {
		rels[v] = Relation{Name: q.Nodes[v].Label, Slots: []int{v}}
	}
	for tid := uint32(0); tid < uint32(nTrees); tid++ {
		if rng.Intn(4) == 0 {
			continue // tree absent from every relation now and then
		}
		refs := randomTreeRefs(rng, 4+rng.Intn(12))
		for v := 0; v < q.Size(); v++ {
			k := rng.Intn(3)
			picked := rng.Perm(len(refs))[:k]
			sort.Slice(picked, func(i, j int) bool { return refs[picked[i]].Pre < refs[picked[j]].Pre })
			for _, n := range picked {
				rels[v].Entries = append(rels[v].Entries, postings.IntervalEntry{
					TID:   tid,
					Nodes: []postings.NodeRef{refs[n]},
				})
			}
		}
	}
	return rels
}

// TestStreamAgreesWithRun is the streaming mode's ground truth: over
// randomized relations and several query shapes, draining the stream
// yields exactly Run's matches, and the row counters agree.
func TestStreamAgreesWithRun(t *testing.T) {
	queries := []*query.Query{
		query.MustParse("A(B)"),
		query.MustParse("A(//B)"),
		query.MustParse("A(B)(C)"),
		query.MustParse("A(B)(//C)"),
		query.MustParse("A(B(C))"),
	}
	rng := rand.New(rand.NewSource(20120711))
	for _, q := range queries {
		for trial := 0; trial < 200; trial++ {
			rels := randomRelations(rng, q)
			skip := false
			for _, r := range rels {
				if len(r.Entries) == 0 {
					skip = true // Run treats an empty relation as no matches; stream too
				}
			}
			want, _, err := Run(context.Background(), q, rels, Options{Order: syntacticOrder(q, rels)})
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, streamOf(t, q, rels))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: stream %v, Run %v", q.Nodes[0].Label, trial, got, want)
			}
			if skip {
				continue
			}
			// The stream never decodes more input than exists: even a
			// full drain reads at most every entry once (and often
			// fewer — it stops pulling a source once any other is
			// exhausted, where Run materializes everything).
			total := 0
			for _, r := range rels {
				total += len(r.Entries)
			}
			s2 := streamOf(t, q, rels)
			drain(t, s2)
			if s2.EntriesRead() > total {
				t.Fatalf("%s trial %d: stream read %d entries of %d", q.Nodes[0].Label, trial, s2.EntriesRead(), total)
			}
		}
	}
}

// TestStreamStopsEarly asserts the point of streaming: consuming one
// match from a many-tree input reads strictly fewer entries and
// produces strictly fewer rows than the full evaluation.
func TestStreamStopsEarly(t *testing.T) {
	q := query.MustParse("A(B)")
	var ra, rb []postings.IntervalEntry
	for tid := uint32(0); tid < 100; tid++ {
		ra = append(ra, postings.IntervalEntry{TID: tid, Nodes: []postings.NodeRef{{Pre: 0, Post: 9, Level: 0, Order: 0}}})
		rb = append(rb, postings.IntervalEntry{TID: tid, Nodes: []postings.NodeRef{{Pre: 1, Post: 1, Level: 1, Order: 1}}})
	}
	rels := []Relation{
		{Name: "A", Slots: []int{0}, Entries: ra},
		{Name: "B", Slots: []int{1}, Entries: rb},
	}
	_, info, err := Run(context.Background(), q, rels, Options{Order: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	s := streamOf(t, q, rels)
	if _, ok := s.Next(); !ok {
		t.Fatal("no first match")
	}
	if s.Rows() >= info.Rows {
		t.Fatalf("one pulled match cost %d rows, full Run %d; want strictly fewer", s.Rows(), info.Rows)
	}
	if s.EntriesRead() >= 2*100 {
		t.Fatalf("one pulled match decoded %d of %d entries", s.EntriesRead(), 2*100)
	}
}

// TestStreamCancellation asserts a cancelled context stops the stream
// with ctx.Err rather than running to completion.
func TestStreamCancellation(t *testing.T) {
	q := query.MustParse("A(B)")
	rels := []Relation{
		{Name: "A", Slots: []int{0}, Entries: []postings.IntervalEntry{
			{TID: 1, Nodes: []postings.NodeRef{{Pre: 0, Post: 3, Level: 0, Order: 0}}},
		}},
		{Name: "B", Slots: []int{1}, Entries: []postings.IntervalEntry{
			{TID: 1, Nodes: []postings.NodeRef{{Pre: 1, Post: 1, Level: 1, Order: 1}}},
		}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srels := []StreamRelation{
		{Name: "A", Slots: []int{0}, Cursor: NewSliceCursor(rels[0].Entries)},
		{Name: "B", Slots: []int{1}, Cursor: NewSliceCursor(rels[1].Entries)},
	}
	s, err := NewStreamOpts(ctx, q, srels, Options{Order: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Next(); ok {
		t.Fatalf("cancelled stream yielded %+v", m)
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", s.Err())
	}
}

// TestStreamRejectsUnboundRoot mirrors Run's validation.
func TestStreamRejectsUnboundRoot(t *testing.T) {
	q := query.MustParse("A(B)")
	srels := []StreamRelation{{Name: "B", Slots: []int{1}, Cursor: NewSliceCursor(nil)}}
	if _, err := NewStreamOpts(context.Background(), q, srels, Options{Order: []int{0}}); err == nil {
		t.Fatal("stream accepted relations that never bind the query root")
	}
}

// failCursor yields one entry then fails, for error propagation tests.
type failCursor struct{ n int }

func (c *failCursor) Next() (postings.IntervalEntry, bool) {
	if c.n == 0 {
		c.n++
		return postings.IntervalEntry{TID: 0, Nodes: []postings.NodeRef{{Pre: 0, Post: 1}}}, true
	}
	return postings.IntervalEntry{}, false
}
func (c *failCursor) Err() error { return errors.New("synthetic decode failure") }

// TestStreamSurfacesCursorError asserts a decode failure ends the
// stream with a named-relation error instead of a silent short result.
func TestStreamSurfacesCursorError(t *testing.T) {
	q := query.MustParse("A")
	s, err := NewStreamOpts(context.Background(), q, []StreamRelation{
		{Name: "1:A", Slots: []int{0}, Cursor: &failCursor{}},
	}, Options{Order: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if s.Err() == nil {
		t.Fatal("cursor failure was swallowed")
	}
}

// flatCursor is a BlockCursor over entries held the way a batch decoder
// produces them — flat tids and node records — so handing over a batch
// is two copies. Each call hands over at most batch() entries (nil: as
// many as asked for), so tests choose where batches, and therefore
// window refills, fall.
type flatCursor struct {
	tids   []uint32
	refs   []postings.NodeRef
	stride int
	i      int // next entry
	batch  func() int
}

// newFlatCursor flattens materialized entries of one width.
func newFlatCursor(entries []postings.IntervalEntry) *flatCursor {
	c := &flatCursor{}
	for _, e := range entries {
		c.tids, c.refs, c.stride = append(c.tids, e.TID), append(c.refs, e.Nodes...), len(e.Nodes)
	}
	return c
}

func (c *flatCursor) NextBlock(tids []uint32, refs []postings.NodeRef) int {
	if c.batch != nil {
		tids = tids[:min(len(tids), c.batch())]
	}
	n := copy(tids, c.tids[c.i:])
	copy(refs, c.refs[c.i*c.stride:(c.i+n)*c.stride])
	c.i += n
	return n
}
func (c *flatCursor) Err() error { return nil }

// cancellingCursor yields its inner entries and cancels a context after
// a fixed number of them, simulating a caller abandoning the query while
// a cursor is mid-decode. It serves both cursor contracts: per entry
// through Next, or in batches through NextBlock.
type cancellingCursor struct {
	inner  *flatCursor
	after  int
	n      int
	cancel context.CancelFunc
}

func (c *cancellingCursor) Next() (postings.IntervalEntry, bool) {
	in := c.inner
	if in.i >= len(in.tids) {
		return postings.IntervalEntry{}, false
	}
	e := postings.IntervalEntry{TID: in.tids[in.i], Nodes: in.refs[in.i*in.stride : (in.i+1)*in.stride]}
	in.i++
	c.tick(1)
	return e, true
}

func (c *cancellingCursor) NextBlock(tids []uint32, refs []postings.NodeRef) int {
	n := c.inner.NextBlock(tids, refs)
	c.tick(n)
	return n
}

func (c *cancellingCursor) tick(entries int) {
	if c.n < c.after && c.n+entries >= c.after {
		c.cancel()
	}
	c.n += entries
}
func (c *cancellingCursor) Err() error { return nil }

// cancelModes serves a cancellingCursor to the stream through either
// contract.
var cancelModes = []struct {
	name string
	rel  func(name string, slot int, c *cancellingCursor) StreamRelation
}{
	{"entry", func(name string, slot int, c *cancellingCursor) StreamRelation {
		return StreamRelation{Name: name, Slots: []int{slot}, Cursor: c}
	}},
	{"block", func(name string, slot int, c *cancellingCursor) StreamRelation {
		return StreamRelation{Name: name, Slots: []int{slot}, Blocks: c}
	}},
}

// TestStreamCancelMidSeek locks in the align fix flagged by
// silint/ctxloop: the seek toward a distant target tid can decode a
// whole relation between fill's per-block polls, so cancellation
// mid-seek must stop the stream within one batch instead of after
// draining the relation.
func TestStreamCancelMidSeek(t *testing.T) {
	q := query.MustParse("A(B)")
	const n = 5000
	small := make([]postings.IntervalEntry, n)
	for i := range small {
		small[i] = postings.IntervalEntry{TID: uint32(i), Nodes: []postings.NodeRef{{Pre: 1, Post: 1, Level: 1, Order: 1}}}
	}
	far := []postings.IntervalEntry{{TID: n + 10, Nodes: []postings.NodeRef{{Pre: 0, Post: 3, Level: 0, Order: 0}}}}
	for _, mode := range cancelModes {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s, err := NewStreamOpts(ctx, q, []StreamRelation{
			{Name: "A", Slots: []int{0}, Cursor: NewSliceCursor(far)},
			mode.rel("B", 1, &cancellingCursor{inner: newFlatCursor(small), after: 1000, cancel: cancel}),
		}, Options{Order: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := s.Next(); ok {
			t.Fatalf("%s: cancelled stream yielded %+v", mode.name, m)
		}
		if !errors.Is(s.Err(), context.Canceled) {
			t.Fatalf("%s: Err = %v, want context.Canceled", mode.name, s.Err())
		}
		// The batch in flight when the caller cancelled is the last one.
		if got := s.EntriesRead(); got >= n || got > 1000+window+1 {
			t.Fatalf("%s: seek read %d of %d entries after cancellation at 1000", mode.name, got, n)
		}
	}
}

// TestStreamCancelMidCollect is the same guarantee for collect: one
// heavy tree's block must not be gathered to completion after the
// caller cancels.
func TestStreamCancelMidCollect(t *testing.T) {
	q := query.MustParse("A(B)")
	const n = 5000
	block := make([]postings.IntervalEntry, n)
	for i := range block {
		p := uint32(i + 1)
		block[i] = postings.IntervalEntry{TID: 7, Nodes: []postings.NodeRef{{Pre: p, Post: p, Level: 1, Order: p}}}
	}
	root := []postings.IntervalEntry{{TID: 7, Nodes: []postings.NodeRef{{Pre: 0, Post: n + 2, Level: 0, Order: 0}}}}
	for _, mode := range cancelModes {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s, err := NewStreamOpts(ctx, q, []StreamRelation{
			{Name: "A", Slots: []int{0}, Cursor: NewSliceCursor(root)},
			mode.rel("B", 1, &cancellingCursor{inner: newFlatCursor(block), after: 1000, cancel: cancel}),
		}, Options{Order: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := s.Next(); ok {
			t.Fatalf("%s: cancelled stream yielded %+v", mode.name, m)
		}
		if !errors.Is(s.Err(), context.Canceled) {
			t.Fatalf("%s: Err = %v, want context.Canceled", mode.name, s.Err())
		}
		if s.EntriesRead() >= n {
			t.Fatalf("%s: collect gathered the whole block after cancellation: %d entries read", mode.name, s.EntriesRead())
		}
	}
}

// heavyRelations builds A(B) inputs whose blocks straddle and outgrow
// the stream's windows: relation A holds one root in most trees,
// relation B anything from no entry to several windows' worth per tree.
func heavyRelations(rng *rand.Rand, trees int) []Relation {
	rels := []Relation{{Name: "A", Slots: []int{0}}, {Name: "B", Slots: []int{1}}}
	for tid := uint32(0); tid < uint32(trees); tid++ {
		if rng.Intn(5) > 0 {
			rels[0].Entries = append(rels[0].Entries, postings.IntervalEntry{
				TID: tid, Nodes: []postings.NodeRef{{Pre: 0, Post: 1 << 20, Level: 0, Order: 0}}})
		}
		k := []int{0, 1, 2, 3, window - 1, window, window + 1, 3*window + 5}[rng.Intn(8)]
		for j := 1; j <= k; j++ {
			p := uint32(j)
			rels[1].Entries = append(rels[1].Entries, postings.IntervalEntry{
				TID: tid, Nodes: []postings.NodeRef{{Pre: p, Post: p, Level: uint32(1 + j%2), Order: p}}})
		}
	}
	return rels
}

// pullCounts replays the per-entry pull protocol that defines the
// stream's work counters — one head per relation, a seek pulls entries
// until the head reaches the target tid, a collect pulls a tree's
// entries and the head after them — over the relations' tids alone. It
// returns each relation's pulled-entry count after every gathered tree,
// keyed by tid, and at the end of the evaluation.
func pullCounts(rels []Relation) (after map[uint32][]int, final []int) {
	pos := make([]int, len(rels)) // each relation's head
	live := func(i int) bool { return pos[i] < len(rels[i].Entries) }
	head := func(i int) uint32 { return rels[i].Entries[pos[i]].TID }
	counts := func() []int {
		c := make([]int, len(rels))
		for i := range c {
			c[i] = min(pos[i]+1, len(rels[i].Entries))
		}
		return c
	}
	after = map[uint32][]int{}
	for {
		for i := range rels {
			if !live(i) {
				return after, counts()
			}
		}
		target := head(0)
		for raised := true; raised; {
			raised = false
			for i := range rels {
				for live(i) && head(i) < target {
					pos[i]++
				}
				if !live(i) {
					return after, counts()
				}
				if head(i) > target {
					target, raised = head(i), true
				}
			}
		}
		for i := range rels {
			for live(i) && head(i) == target {
				pos[i]++
			}
		}
		after[target] = counts()
	}
}

// TestStreamCountersIgnoreBatching is the logical-counter rule: however
// the input reaches the stream — one entry per cursor call, whole
// windows, or batches of random sizes that cut trees' blocks anywhere —
// EntriesRead and every SourceRead are, after each match and at the end,
// exactly what the per-entry pull protocol (pullCounts) would have
// decoded, because an entry counts when it becomes a relation's head,
// never when it is decoded ahead into a window. The blocks here straddle
// refills and outgrow the window, so refill's keep-and-grow path is held
// to Run's matches too.
func TestStreamCountersIgnoreBatching(t *testing.T) {
	q := query.MustParse("A(B)")
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		rels := heavyRelations(rng, 1+rng.Intn(60))
		if len(rels[0].Entries) == 0 || len(rels[1].Entries) == 0 {
			continue
		}
		want, _, err := Run(context.Background(), q, rels, Options{Order: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		after, final := pullCounts(rels)
		whole, random := make([]StreamRelation, len(rels)), make([]StreamRelation, len(rels))
		for i, r := range rels {
			whole[i] = StreamRelation{Name: r.Name, Slots: r.Slots, Blocks: newFlatCursor(r.Entries)}
			cut := newFlatCursor(r.Entries)
			cut.batch = func() int { return 1 + rng.Intn(2*window) }
			random[i] = StreamRelation{Name: r.Name, Slots: r.Slots, Blocks: cut}
		}
		rows := -1
		for _, v := range []struct {
			name  string
			srels []StreamRelation
		}{{"entry", sliceRelations(rels)}, {"whole", whole}, {"random", random}} {
			s, err := NewStreamOpts(context.Background(), q, v.srels, Options{Order: []int{0, 1}})
			if err != nil {
				t.Fatal(err)
			}
			check := func(at string, wantReads []int) {
				t.Helper()
				if s.SourceRead(0) != wantReads[0] || s.SourceRead(1) != wantReads[1] || s.EntriesRead() != wantReads[0]+wantReads[1] {
					t.Fatalf("trial %d %s %s: read %d+%d (total %d), per-entry protocol %v",
						trial, v.name, at, s.SourceRead(0), s.SourceRead(1), s.EntriesRead(), wantReads)
				}
			}
			var got []Match
			for {
				m, ok := s.Next()
				if !ok {
					break
				}
				check(fmt.Sprintf("at match %+v", m), after[m.TID])
				got = append(got, m)
			}
			check("drained", final)
			if s.Err() != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: %d matches (err %v), Run %d", trial, v.name, len(got), s.Err(), len(want))
			}
			if rows < 0 {
				rows = s.Rows()
			}
			if s.Rows() != rows {
				t.Fatalf("trial %d %s: %d rows, entry-cursor stream %d", trial, v.name, s.Rows(), rows)
			}
		}
	}
}

// TestStreamJoinsRunsFarLargerThanTheWindow is the keep-and-grow path at
// scale: a relation holding thousands of entries for one tree — its
// window doubling many times over — and trees after it, through both
// cursor contracts and for one- and three-node entries, is joined in
// full. A window whose two arrays disagreed about their room would end
// such a relation early and silently drop every later tree.
func TestStreamJoinsRunsFarLargerThanTheWindow(t *testing.T) {
	const run = 5000
	for _, tc := range []struct {
		q     string
		slots [][]int // of relations A and B
	}{
		{"A(B)", [][]int{{0}, {1}}},
		{"A(B(C)(D))", [][]int{{0}, {1, 2, 3}}},
	} {
		q := query.MustParse(tc.q)
		rels := []Relation{{Name: "A", Slots: tc.slots[0]}, {Name: "B", Slots: tc.slots[1]}}
		for tid := uint32(0); tid < 40; tid++ {
			n := 2
			if tid == 7 || tid == 30 {
				n = run + int(tid)
			}
			rels[0].Entries = append(rels[0].Entries, postings.IntervalEntry{
				TID: tid, Nodes: []postings.NodeRef{{Pre: 0, Post: 1 << 20, Level: 0, Order: 0}}})
			for j := 0; j < n; j++ {
				p := uint32(1 + 4*j)
				nodes := []postings.NodeRef{
					{Pre: p, Post: p + 3, Level: 1, Order: uint32(j)},
					{Pre: p + 1, Post: p + 1, Level: 2, Order: 0},
					{Pre: p + 2, Post: p + 2, Level: 2, Order: 1},
				}
				rels[1].Entries = append(rels[1].Entries, postings.IntervalEntry{TID: tid, Nodes: nodes[:len(tc.slots[1])]})
			}
		}
		want, info, err := Run(context.Background(), q, rels, Options{Order: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 40 {
			t.Fatalf("%s: Run found %d matches, want one per tree", tc.q, len(want))
		}
		blocks := make([]StreamRelation, len(rels))
		for i, r := range rels {
			blocks[i] = StreamRelation{Name: r.Name, Slots: r.Slots, Blocks: newFlatCursor(r.Entries)}
		}
		for name, srels := range map[string][]StreamRelation{"entry": sliceRelations(rels), "block": blocks} {
			s, err := NewStreamOpts(context.Background(), q, srels, Options{Order: []int{0, 1}})
			if err != nil {
				t.Fatal(err)
			}
			var got []Match
			for m, ok := s.Next(); ok; m, ok = s.Next() {
				got = append(got, m)
			}
			if s.Err() != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: %d matches (err %v), Run %d", tc.q, name, len(got), s.Err(), len(want))
			}
			if s.Rows() != info.Rows || s.EntriesRead() != len(rels[0].Entries)+len(rels[1].Entries) {
				t.Fatalf("%s %s: %d rows, %d entries read; Run %d rows over %d+%d entries",
					tc.q, name, s.Rows(), s.EntriesRead(), info.Rows, len(rels[0].Entries), len(rels[1].Entries))
			}
		}
	}
}

// brokenCursor is a BlockCursor that hands over scripted batches,
// well-formed or not: each batch is its tids, written as far as they
// fit, and the entry count the cursor claims for it (0: the tids').
type brokenCursor struct {
	batches []brokenBatch
}

type brokenBatch struct {
	tids  []uint32
	claim int
}

func (c *brokenCursor) NextBlock(tids []uint32, refs []postings.NodeRef) int {
	if len(c.batches) == 0 {
		return 0
	}
	b := c.batches[0]
	c.batches = c.batches[1:]
	copy(tids, b.tids)
	if b.claim != 0 {
		return b.claim
	}
	return len(b.tids)
}
func (c *brokenCursor) Err() error { return nil }

// TestStreamRejectsMalformedBlocks holds batch input to what the join
// relies on: a batch that claims more entries than it was given room
// for, and a tid that runs backwards — inside one batch or from one
// batch to the next — each fail the stream rather than join garbage. (A
// batch cannot hold entries of the wrong width: the stream hands the
// cursor the records' room along with the tids'.) Per-entry input is
// held to the same entry by entry: an entry of the wrong width or a tid
// running backwards fails the stream when that entry would become the
// relation's head — which is before the tree ahead of it is joined, since
// gathering a tree's entries reads the head after them, as it did when
// entries were pulled one at a time — and no match behind it is emitted.
func TestStreamRejectsMalformedBlocks(t *testing.T) {
	type batch = brokenBatch
	ref := []postings.NodeRef{{Pre: 0, Post: 1}}
	wide := append(ref, ref...)
	for _, tc := range []struct {
		name    string
		rel     StreamRelation
		want    string
		matches int // emitted ahead of the error
	}{
		{"overfull batch", StreamRelation{Blocks: &brokenCursor{batches: []batch{{[]uint32{1, 2}, window + 1}}}}, "block of 33 entries in room for 32", 0},
		{"overfull second batch", StreamRelation{Blocks: &brokenCursor{batches: []batch{{[]uint32{1}, 0}, {[]uint32{2, 3}, 2 * window}}}}, "block of 64 entries in room for 31", 0},
		{"backwards in a batch", StreamRelation{Blocks: &brokenCursor{batches: []batch{{[]uint32{1, 5, 4}, 0}}}}, "not tid-sorted", 0},
		{"backwards across batches", StreamRelation{Blocks: &brokenCursor{batches: []batch{{[]uint32{1, 5}, 0}, {[]uint32{4}, 0}}}}, "not tid-sorted", 1},
		{"last entry of the wrong width", StreamRelation{Cursor: NewSliceCursor([]postings.IntervalEntry{
			{TID: 1, Nodes: ref}, {TID: 2, Nodes: wide}})}, "entry binds 2 nodes, want 1", 0},
		{"middle entry of the wrong width", StreamRelation{Cursor: NewSliceCursor([]postings.IntervalEntry{
			{TID: 1, Nodes: ref}, {TID: 2, Nodes: ref}, {TID: 3, Nodes: wide}, {TID: 4, Nodes: ref}, {TID: 5, Nodes: ref}})}, "entry binds 2 nodes, want 1", 1},
		{"entries backwards", StreamRelation{Cursor: NewSliceCursor([]postings.IntervalEntry{
			{TID: 1, Nodes: ref}, {TID: 5, Nodes: ref}, {TID: 4, Nodes: ref}})}, "not tid-sorted", 0},
	} {
		tc.rel.Name, tc.rel.Slots = "1:A", []int{0}
		s, err := NewStreamOpts(context.Background(), query.MustParse("A"), []StreamRelation{tc.rel}, Options{Order: []int{0}})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			n++
		}
		if s.Err() == nil || !strings.Contains(s.Err().Error(), tc.want) || !strings.Contains(s.Err().Error(), `"1:A"`) {
			t.Errorf("%s: stream ended after %d matches with %v, want an error naming the relation and %q", tc.name, n, s.Err(), tc.want)
		}
		if n != tc.matches {
			t.Errorf("%s: %d matches ahead of the error, want %d", tc.name, n, tc.matches)
		}
	}
}

// TestStreamStopsAtAMalformedEntry is the bounded-drain side of the
// above: the per-entry adapter does not pull its cursor past an entry of
// the wrong width, so a stream read on after the matches ahead of that
// entry fails instead of resuming behind it.
func TestStreamStopsAtAMalformedEntry(t *testing.T) {
	ref := []postings.NodeRef{{Pre: 0, Post: 1}}
	var entries []postings.IntervalEntry
	for tid := uint32(0); tid < 3*window; tid++ {
		entries = append(entries, postings.IntervalEntry{TID: tid, Nodes: ref})
	}
	const bad = window + 3
	entries[bad].Nodes = append(ref, ref...)
	cur := NewSliceCursor(entries)
	s, err := NewStreamOpts(context.Background(), query.MustParse("A"), []StreamRelation{{Name: "1:A", Slots: []int{0}, Cursor: cur}}, Options{Order: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	// The tree just ahead of the bad entry is not joined: gathering it
	// reads the next head, which is the bad entry.
	for want := uint32(0); want < bad-1; want++ {
		if m, ok := s.Next(); !ok || m.TID != want || s.Err() != nil {
			t.Fatalf("match %d: got %+v ok=%v err=%v", want, m, ok, s.Err())
		}
	}
	if m, ok := s.Next(); ok || s.Err() == nil || !strings.Contains(s.Err().Error(), "entry binds 2 nodes, want 1") {
		t.Fatalf("read past the malformed entry: %+v ok=%v err=%v", m, ok, s.Err())
	}
	if cur.i != bad+1 {
		t.Fatalf("cursor pulled to entry %d, want it stopped at the malformed entry %d", cur.i-1, bad)
	}
}
