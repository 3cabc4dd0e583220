//go:build !race

package core

import (
	"testing"

	"repro/internal/postings"
)

// TestRootCursorBlockAllocatesNothing locks in the streaming decode's
// allocation profile: the cursor decodes every block straight into the
// caller's buffers and squeezes tombstoned postings out in place, so a
// block costs no allocation, with or without tombstones. Excluded under
// the race detector, which instruments allocation.
func TestRootCursorBlockAllocatesNothing(t *testing.T) {
	acc := postings.NewRootAccumulator(true)
	const n = 4096
	for i := uint32(0); i < n; i++ {
		acc.Add(i/2, postings.NodeRef{Pre: i % 2, Post: 9, Level: i % 2})
	}
	for _, dels := range []*TombSet{nil, newTombSet([]uint32{3, 4, 900, 2047})} {
		c := &rootCursor{it: *postings.NewRootIterator(acc.Bytes()), dels: dels.Scan()}
		tids, refs := make([]uint32, 64), make([]postings.NodeRef, 64)
		pulled := 0
		allocs := testing.AllocsPerRun(n/64, func() {
			pulled += c.NextBlock(tids, refs)
		})
		if allocs != 0 {
			t.Fatalf("tombstones=%d: rootCursor.NextBlock allocates %.2f objects per block, want 0", dels.Len(), allocs)
		}
		if want := n - 2*dels.Len(); pulled != want || c.Err() != nil {
			t.Fatalf("tombstones=%d: pulled %d entries, want %d (err %v)", dels.Len(), pulled, want, c.Err())
		}
	}
}
