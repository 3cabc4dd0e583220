package join

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/postings"
	"repro/internal/query"
)

// sliceRelations serves materialized relations through SliceCursors.
func sliceRelations(rels []Relation) []StreamRelation {
	srels := make([]StreamRelation, len(rels))
	for i, r := range rels {
		srels[i] = StreamRelation{Name: r.Name, Slots: r.Slots, Cursor: NewSliceCursor(r.Entries)}
	}
	return srels
}

// streamOf builds a Stream over materialized relations via SliceCursor.
func streamOf(t *testing.T, q *query.Query, rels []Relation) *Stream {
	t.Helper()
	s, err := NewStream(context.Background(), q, sliceRelations(rels))
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
			want, _, err := Run(context.Background(), q, rels, Options{})
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
			// exhausted, where Run materializes everything). Step-row
			// totals are not compared: the per-tid join may pick a
			// different order than the global join, so only the input
			// half of the work measure is path-independent.
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
	_, info, err := Run(context.Background(), q, rels, Options{})
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
	s, err := NewStream(ctx, q, srels)
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
	if _, err := NewStream(context.Background(), q, srels); err == nil {
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
	s, err := NewStream(context.Background(), q, []StreamRelation{
		{Name: "1:A", Slots: []int{0}, Cursor: &failCursor{}},
	})
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

// cancellingCursor yields its inner entries and cancels a context after
// a fixed number of pulls, simulating a caller abandoning the query
// while a cursor is mid-decode.
type cancellingCursor struct {
	inner  EntryCursor
	after  int
	n      int
	cancel context.CancelFunc
}

func (c *cancellingCursor) Next() (postings.IntervalEntry, bool) {
	c.n++
	if c.n == c.after {
		c.cancel()
	}
	return c.inner.Next()
}
func (c *cancellingCursor) Err() error { return c.inner.Err() }

// TestStreamCancelMidSeek locks in the align fix flagged by
// silint/ctxloop: the seek toward a distant target tid can decode a
// whole relation between fill's per-block polls, so cancellation
// mid-seek must stop the stream within the amortization window instead
// of after draining the relation.
func TestStreamCancelMidSeek(t *testing.T) {
	q := query.MustParse("A(B)")
	const n = 5000
	small := make([]postings.IntervalEntry, n)
	for i := range small {
		small[i] = postings.IntervalEntry{TID: uint32(i), Nodes: []postings.NodeRef{{Pre: 1, Post: 1, Level: 1, Order: 1}}}
	}
	far := []postings.IntervalEntry{{TID: n + 10, Nodes: []postings.NodeRef{{Pre: 0, Post: 3, Level: 0, Order: 0}}}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewStream(ctx, q, []StreamRelation{
		{Name: "A", Slots: []int{0}, Cursor: NewSliceCursor(far)},
		{Name: "B", Slots: []int{1}, Cursor: &cancellingCursor{inner: NewSliceCursor(small), after: 1000, cancel: cancel}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Next(); ok {
		t.Fatalf("cancelled stream yielded %+v", m)
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", s.Err())
	}
	if s.EntriesRead() >= n {
		t.Fatalf("seek drained the relation after cancellation: %d entries read", s.EntriesRead())
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewStream(ctx, q, []StreamRelation{
		{Name: "A", Slots: []int{0}, Cursor: NewSliceCursor(root)},
		{Name: "B", Slots: []int{1}, Cursor: &cancellingCursor{inner: NewSliceCursor(block), after: 1000, cancel: cancel}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Next(); ok {
		t.Fatalf("cancelled stream yielded %+v", m)
	}
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", s.Err())
	}
	if s.EntriesRead() >= n {
		t.Fatalf("collect gathered the whole block after cancellation: %d entries read", s.EntriesRead())
	}
}
