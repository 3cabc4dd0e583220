package core

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/planner"
	"repro/internal/subtree"
)

// TestCorruptPostingCountIsAnError feeds every evaluation path posting
// values whose count prefix lies. The prefix sizes fetchPiece's
// allocations, so an unchecked 1<<62 used to panic (makeslice: cap out
// of range) inside a search goroutine net/http cannot recover — one
// corrupt B+Tree value killed the server. The count is now bounded by
// what the payload can hold, and a prefix smaller than the list is
// rejected where the exact-size decode would overrun it.
func TestCorruptPostingCountIsAnError(t *testing.T) {
	const q = "NP(DT)(NN)"
	materialized := 0
	for coding, l := range buildAll(t, shardCorpus(200), 3) {
		leaf := l.cur.Load().set.leaves[0]
		pl, _, err := l.plans.planText(q)
		if err != nil {
			t.Fatal(err)
		}
		// withCount re-prefixes every fetched value with a forged count.
		withCount := func(c uint64) postingGetter {
			return func(k subtree.Key) ([]byte, bool, error) {
				val, found, err := leaf.getPosting(k)
				if err != nil || !found {
					return val, found, err
				}
				_, n := binary.Uvarint(val)
				return append(binary.AppendUvarint(nil, c), val[n:]...), true, nil
			}
		}
		if ms, _, _, err := leaf.evalPlan(context.Background(), pl, leaf.getPosting, evalOpts{}); err != nil || len(ms) == 0 {
			t.Fatalf("%v: vacuous fixture: %d matches, err %v", coding, len(ms), err)
		}
		for _, ev := range []struct {
			name string
			opts evalOpts
		}{{"full", evalOpts{}}, {"count-only", evalOpts{countOnly: true}}, {"bounded", evalOpts{target: 3}}} {
			_, _, _, err := leaf.evalPlan(context.Background(), pl, withCount(1<<62), ev.opts)
			if err == nil || !strings.Contains(err.Error(), "corrupt posting count") {
				t.Errorf("%v %s: count 1<<62 gave err %v, want a corrupt posting count error", coding, ev.name, err)
			}
		}
		// A count of 1 is within the payload bound but below the real
		// record count: the materialized join decode must refuse to
		// overrun its exact-size carve. (The streaming and filter paths
		// never size anything by the count.)
		if pl.Strategy == planner.StrategyStack || pl.Strategy == planner.StrategyBlock {
			materialized++
			_, _, _, err := leaf.evalPlan(context.Background(), pl, withCount(1), evalOpts{})
			if err == nil || !strings.Contains(err.Error(), "corrupt posting count") {
				t.Errorf("%v: count 1 gave err %v, want a corrupt posting count error", coding, err)
			}
		}
	}
	if materialized != 2 {
		t.Errorf("%d codings ran the materialized join, want both joining codings", materialized)
	}
}
