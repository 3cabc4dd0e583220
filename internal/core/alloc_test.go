//go:build !race

package core

import (
	"testing"

	"repro/internal/postings"
)

// TestRootCursorNextAllocatesNothing locks in the streaming decode's
// allocation profile: the cursor serves every entry through its one
// scratch record (the join copies what it keeps), so pulling an entry
// costs no allocation. Excluded under the race detector, which
// instruments allocation.
func TestRootCursorNextAllocatesNothing(t *testing.T) {
	acc := postings.NewRootAccumulator(true)
	const n = 4096
	for i := uint32(0); i < n; i++ {
		acc.Add(i/2, postings.NodeRef{Pre: i % 2, Post: 9, Level: i % 2, Order: i % 2})
	}
	c := &rootCursor{it: *postings.NewRootIterator(acc.Bytes())}
	pulled := 0
	allocs := testing.AllocsPerRun(n/2, func() {
		if _, ok := c.Next(); ok {
			pulled++
		}
	})
	if allocs != 0 {
		t.Fatalf("rootCursor.Next allocates %.2f objects per entry, want 0", allocs)
	}
	if pulled < n/2 {
		t.Fatalf("pulled %d entries, want at least %d", pulled, n/2)
	}
}
