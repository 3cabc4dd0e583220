package planner

import "repro/internal/subtree"

// Stats is the cost model's count source: New costs every cover piece
// by Count of its key. The live index supplies, per published segment
// set, the exact posting count stored in front of each key's B+Tree
// value, summed over the set's leaves. Stats stays a named struct only
// because the frozen benchmark (bench/layers.go) names it.
type Stats struct {
	// Count returns the number of posting records stored under key (0
	// when absent); an error fails the plan.
	Count func(key subtree.Key) (uint64, error)
}
