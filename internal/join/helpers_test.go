package join

import (
	"context"

	"repro/internal/postings"
	"repro/internal/query"
)

// SliceCursor adapts an in-memory entry slice to EntryCursor, so tests
// can stream materialized relations.
type SliceCursor struct {
	entries []postings.IntervalEntry
	i       int
}

// NewSliceCursor returns a cursor over entries, which must already be
// in (tid, pre) order.
func NewSliceCursor(entries []postings.IntervalEntry) *SliceCursor {
	return &SliceCursor{entries: entries}
}

// Next returns the next entry of the slice.
func (c *SliceCursor) Next() (postings.IntervalEntry, bool) {
	if c.i >= len(c.entries) {
		return postings.IntervalEntry{}, false
	}
	e := c.entries[c.i]
	c.i++
	return e, true
}

// Err always reports nil: a slice cannot fail to decode.
func (c *SliceCursor) Err() error { return nil }

// sliceRelations serves materialized relations through SliceCursors.
func sliceRelations(rels []Relation) []StreamRelation {
	srels := make([]StreamRelation, len(rels))
	for i, r := range rels {
		srels[i] = StreamRelation{Name: r.Name, Slots: r.Slots, Cursor: NewSliceCursor(r.Entries)}
	}
	return srels
}

// syntacticOrder is the order the planner gives an uncosted plan, over
// the relations' slot sets: relation 0 first, then always the
// lowest-index relation connected to the bound set. It is nil when the
// relations do not connect.
func syntacticOrder(q *query.Query, rels []Relation) []int {
	slots := relationSlots(rels)
	used := make([]bool, len(slots))
	bound := map[int]bool{}
	var order []int
	for len(order) < len(slots) {
		next := -1
		for i := range slots {
			if !used[i] && (len(order) == 0 || slotsConnected(q, slots[i], bound)) {
				next = i
				break
			}
		}
		if next < 0 {
			return nil
		}
		used[next] = true
		order = append(order, next)
		for _, s := range slots[next] {
			bound[s] = true
		}
	}
	return order
}

// execute runs the join of rels in the given order and returns its
// matches.
func execute(q *query.Query, rels []Relation, order ...int) ([]Match, error) {
	ms, _, err := Run(context.Background(), q, rels, Options{Order: order})
	return ms, err
}
