package join

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/postings"
	"repro/internal/query"
)

// The join layer's benchmarks: the query A(B) over two one-slot
// relations of n entries each, at fixed input cardinalities. Relation A
// holds one root per tree for trees 0..n-1; relation B holds one child
// per tree on every stride-th tree, so a fraction 1/stride of B's
// entries — the matching share — falls on a tree A also has, and each
// of those yields exactly one match. Work counters are reported next to
// time and allocations, so `make bench-json` gates all three.

// benchRelations builds the two relations; stride 2 is 50 % matching
// tids, stride 100 is 1 %.
func benchRelations(n, stride int) []Relation {
	a := make([]postings.IntervalEntry, n)
	b := make([]postings.IntervalEntry, n)
	nodes := make([]postings.NodeRef, 2*n)
	for i := 0; i < n; i++ {
		nodes[2*i] = postings.NodeRef{Pre: 0, Post: 9, Level: 0}
		nodes[2*i+1] = postings.NodeRef{Pre: 1, Post: 1, Level: 1}
		a[i] = postings.IntervalEntry{TID: uint32(i), Nodes: nodes[2*i : 2*i+1 : 2*i+1]}
		b[i] = postings.IntervalEntry{TID: uint32(i * stride), Nodes: nodes[2*i+1 : 2*i+2 : 2*i+2]}
	}
	return []Relation{
		{Name: "A", Slots: []int{0}, Entries: a},
		{Name: "B", Slots: []int{1}, Entries: b},
	}
}

// benchShapes are the fixed input cardinalities of ROADMAP item 1's
// join line.
var benchShapes = []struct {
	n, stride int
}{{1000, 100}, {1000, 2}, {100000, 100}, {100000, 2}}

func shapeName(n, stride int) string {
	return fmt.Sprintf("n=%d/match=%dpct", n, 100/stride)
}

func BenchmarkJoinRun(b *testing.B) {
	q := query.MustParse("A(B)")
	for _, sh := range benchShapes {
		rels := benchRelations(sh.n, sh.stride)
		b.Run(shapeName(sh.n, sh.stride), func(b *testing.B) {
			b.ReportAllocs()
			var info Info
			for i := 0; i < b.N; i++ {
				var err error
				_, info, err = Run(context.Background(), q, rels, Options{Order: []int{0, 1}})
				if err != nil {
					b.Fatal(err)
				}
			}
			if want := (sh.n + sh.stride - 1) / sh.stride; info.Count != want {
				b.Fatalf("Count = %d, want %d", info.Count, want)
			}
			b.ReportMetric(float64(info.Rows), "joinrows/op")
		})
	}
}

func BenchmarkJoinStream(b *testing.B) {
	q := query.MustParse("A(B)")
	for _, mode := range []struct {
		name  string
		limit int
	}{{"drain", 0}, {"limit10", 10}} {
		for _, sh := range benchShapes {
			rels := benchRelations(sh.n, sh.stride)
			b.Run(mode.name+"/"+shapeName(sh.n, sh.stride), func(b *testing.B) {
				b.ReportAllocs()
				var s *Stream
				for i := 0; i < b.N; i++ {
					var err error
					s, err = NewStreamOpts(context.Background(), q, sliceRelations(rels), Options{Order: []int{0, 1}})
					if err != nil {
						b.Fatal(err)
					}
					got := 0
					for mode.limit == 0 || got < mode.limit {
						if _, ok := s.Next(); !ok {
							break
						}
						got++
					}
					if err := s.Err(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(s.Rows()), "joinrows/op")
			})
		}
	}
}

// BenchmarkStreamAlign times the stream's seek in each gap regime: the
// query A(B) where relation A has an entry in every gap-th tree and
// relation B one in every tree, so aligning on each of A's trees steps B
// over gap entries — one at gap=1, most of a window at gap=64, several
// whole windows at gap=512. Input arrives through a batch cursor over
// flat arrays whose Skip is a plain scan, so what is timed is the
// stream's own window scan, skip, refill and block hand-over, in ns per
// entry of B.
func BenchmarkStreamAlign(b *testing.B) {
	q := query.MustParse("A(B)")
	const n = 1 << 17 // entries of B
	for _, gap := range []int{1, 8, 64, 512} {
		rels := benchRelations(n, 1) // B: one child in every tree
		var sparse []postings.IntervalEntry
		for i := 0; i < n; i += gap {
			sparse = append(sparse, rels[0].Entries[i])
		}
		rels[0].Entries = sparse // A: a root in every gap-th tree
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			b.ReportAllocs()
			ca, cb := newFlatCursor(rels[0].Entries), newFlatCursor(rels[1].Entries)
			b.ResetTimer()
			var s *Stream
			for i := 0; i < b.N; i++ {
				var err error
				ca.i, cb.i = 0, 0
				s, err = NewStreamOpts(context.Background(), q, []StreamRelation{
					{Name: "A", Slots: rels[0].Slots, Blocks: ca},
					{Name: "B", Slots: rels[1].Slots, Blocks: cb},
				}, Options{Order: []int{0, 1}})
				if err != nil {
					b.Fatal(err)
				}
				got := 0
				for _, ok := s.Next(); ok; _, ok = s.Next() {
					got++
				}
				if got != len(sparse) || s.Err() != nil {
					b.Fatalf("%d matches, want %d (err %v)", got, len(sparse), s.Err())
				}
			}
			b.ReportMetric(float64(s.Rows()), "joinrows/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/entry")
		})
	}
}
