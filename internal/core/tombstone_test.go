package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTombScanAgreesWithHas holds the forward-only scan to the point
// lookup it replaces in the decode loops: over random sets — the nil
// set, the empty set, dense runs and sparse scatters — every
// non-decreasing probe sequence, repeated tids included, answers exactly
// as TombSet.Has does.
func TestTombScanAgreesWithHas(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 500; trial++ {
		span := uint32(1 + rng.Intn(4000))
		var tids []uint32
		for i, n := 0, rng.Intn(300)*rng.Intn(2); i < n; i++ {
			tids = append(tids, rng.Uint32()%span)
		}
		slices.Sort(tids)
		set := newTombSet(slices.Compact(tids)) // nil when empty
		if trial == 0 {
			set = &TombSet{} // the non-nil empty set
		}
		scan := set.Scan()
		probe := uint32(0)
		for i := 0; i < 400; i++ {
			switch rng.Intn(4) {
			case 0: // the same tid again
			case 1:
				probe++
			case 2:
				probe += uint32(rng.Intn(8))
			default:
				probe += uint32(rng.Intn(int(span)/4 + 1))
			}
			if got, want := scan.Has(probe), set.Has(probe); got != want {
				t.Fatalf("trial %d: scan.Has(%d) = %v after %d probes, set.Has = %v (set of %d)", trial, probe, got, i, want, set.Len())
			}
		}
	}
}
