//go:build !race

package join

import (
	"context"
	"testing"

	"repro/internal/query"
)

// TestStreamSteadyStateAllocatesNothing locks in the kernel's
// allocation profile: a stream's allocations are its set-up (the
// compiled program, the sources, the first blocks growing the reused
// buffers), so draining one over four times as many matching trees
// must not allocate a single object more — the per-tree cost is zero.
// Excluded under the race detector, which instruments allocation.
func TestStreamSteadyStateAllocatesNothing(t *testing.T) {
	q := query.MustParse("A(B)")
	drained := func(n int) float64 {
		rels := benchRelations(n, 1) // every tree matches
		return testing.AllocsPerRun(5, func() {
			s, err := NewStreamOpts(context.Background(), q, sliceRelations(rels), Options{Order: []int{0, 1}})
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				got++
			}
			if got != n || s.Err() != nil {
				t.Fatalf("drained %d of %d matches, err %v", got, n, s.Err())
			}
		})
	}
	small, large := drained(500), drained(2000)
	if large > small {
		t.Fatalf("draining 2000 matching trees allocated %.0f objects, 500 trees %.0f: the per-tree path allocates", large, small)
	}
}
