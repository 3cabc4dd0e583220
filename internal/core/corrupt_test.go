package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/pager"
	"repro/internal/planner"
	"repro/internal/postings"
	"repro/internal/query"
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

// TestCorruptCountPrefixOnKeyPaths holds the key-count paths — a point
// count (lookupKeyLive, behind KeyCount), the key iteration of leaf
// merges and the planner's piece costs — to postingPayload's bound. A
// count prefix of 1<<63 used to read as a negative count with no error.
// A plan whose costing read a forged count fails the search on either
// backend and is not stored, so a repeat fails again.
func TestCorruptCountPrefixOnKeyPaths(t *testing.T) {
	const q = "NP(DT)(NN)"
	dir := t.TempDir()
	if _, err := Build(dir, shardCorpus(40), Options{MSS: 2, Coding: postings.RootSplit}); err != nil {
		t.Fatal(err)
	}
	uncosted, err := planner.New(query.MustParse(q), 2, postings.RootSplit, nil)
	if err != nil {
		t.Fatal(err)
	}
	pieceKey := []byte(uncosted.Pieces[0].Key)
	path := filepath.Join(dir, indexFileName)
	src, err := btree.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2][]byte
	for it := src.Iterator(nil); it.Next(); {
		pairs = append(pairs, [2][]byte{bytes.Clone(it.Key()), bytes.Clone(it.Value())})
	}
	src.Close()
	if len(pairs) < 2 {
		t.Fatalf("vacuous fixture: %d keys", len(pairs))
	}
	if bytes.Equal(pairs[1][0], pieceKey) {
		t.Fatalf("vacuous fixture: the intact key %q is a piece of %s", pieceKey, q)
	}
	// Rewrite the tree with the count prefix of the first key and of one
	// of q's pieces forged.
	forged := 0
	for i := range pairs {
		if i == 0 || bytes.Equal(pairs[i][0], pieceKey) {
			_, n := binary.Uvarint(pairs[i][1])
			pairs[i][1] = append(binary.AppendUvarint(nil, 1<<63), pairs[i][1][n:]...)
			forged++
		}
	}
	if forged != 2 {
		t.Fatalf("vacuous fixture: forged %d keys, want the first key and %q", forged, pieceKey)
	}
	b, err := btree.NewBuilder(path, pager.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range pairs {
		if err := b.Add(kv[0], kv[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenWith(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	for _, dels := range []*TombSet{nil, newTombSet([]uint32{0})} {
		if c, err := ix.lookupKeyLive(subtree.Key(pairs[0][0]), dels); err == nil || !strings.Contains(err.Error(), "corrupt posting count") {
			t.Errorf("tombstones=%d: forged key counts %d, err %v; want a corrupt posting count error", dels.Len(), c, err)
		}
		if c, err := ix.lookupKeyLive(subtree.Key(pairs[1][0]), dels); err != nil || c <= 0 {
			t.Errorf("tombstones=%d: intact key counts %d, err %v", dels.Len(), c, err)
		}
		it := ix.keyIterLive("", dels)
		if it.Next() || it.Err() == nil || !strings.Contains(it.Err().Error(), "corrupt posting count") {
			t.Errorf("tombstones=%d: key iteration over the forged key: key %q count %d, err %v", dels.Len(), it.Key(), it.Count(), it.Err())
		}
	}
	for _, mode := range []MmapMode{MmapAuto, MmapOff} {
		l, err := OpenLive(dir, OpenOptions{Mmap: mode})
		if err != nil {
			t.Fatal(err)
		}
		for try := 0; try < 2; try++ {
			if _, err := l.Search(context.Background(), q, SearchOpts{}); err == nil || !strings.Contains(err.Error(), "corrupt posting count") {
				t.Errorf("mmap=%v try %d: planning over a forged piece count gave err %v; want a corrupt posting count error", mode, try, err)
			}
		}
		e := l.cur.Load()
		e.plansMu.Lock()
		stored := len(e.plans)
		e.plansMu.Unlock()
		if c := l.Counters(); stored != 0 || c.PlanCacheHits != 0 {
			t.Errorf("mmap=%v: a failed plan was stored: %d plans, %d plan-map hits", mode, stored, c.PlanCacheHits)
		}
		l.Close()
	}
}
