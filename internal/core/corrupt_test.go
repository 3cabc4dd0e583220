package core

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/subtree"
)

// TestCorruptPostingCountIsAnError feeds every evaluation bound, on
// every coding, posting values whose count prefix lies, and then values
// cut inside their last record. An unchecked
// 1<<62 once sized an allocation and panicked (makeslice: cap out of
// range) inside a search goroutine net/http cannot recover — one
// corrupt B+Tree value killed the server. The stream sizes nothing by
// the prefix, but postingPayload still bounds it by what the payload
// can hold, so the hostile value is reported instead of trusted.
func TestCorruptPostingCountIsAnError(t *testing.T) {
	const q = "NP(DT)(NN)"
	for coding, l := range buildAll(t, shardCorpus(200), 3) {
		leaf := l.cur.Load().set.leaves[0]
		pl, _, err := l.planText(l.cur.Load(), q)
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
		// A value cut inside its last record gets past the count check and
		// must fail where it is decoded — the block decoder for root-split
		// lists, the per-entry iterators for the other two codings. Every
		// list is cut, so the one the evaluation reads to its end is too.
		cut := func(k subtree.Key) ([]byte, bool, error) {
			val, found, err := leaf.getPosting(k)
			if err != nil || !found {
				return val, found, err
			}
			return val[:len(val)-1], true, nil
		}
		for _, countOnly := range []bool{false, true} {
			_, _, _, err := leaf.evalPlan(context.Background(), pl, cut, evalOpts{countOnly: countOnly})
			if err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Errorf("%v countOnly=%v: a truncated posting list gave err %v, want a corrupt-list error", coding, countOnly, err)
			}
		}
	}
}
