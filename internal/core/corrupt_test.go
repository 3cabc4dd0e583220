package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"path/filepath"
	"slices"
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
	pairs := leafPairs(t, dir)
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
	writeLeaf(t, dir, pairs)
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

// TestIntervalInstanceOfTheWrongWidthFails stores a subtree-interval
// list in which one instance, midway, has a node fewer than its key has
// slots. The batch cursor checks every instance against its piece's
// stride, so a search, a count and a stream over the list each end in
// an error naming the widths, never a panic, and no match comes from
// the malformed instance or from behind it.
func TestIntervalInstanceOfTheWrongWidthFails(t *testing.T) {
	const q = "NP(DT)(NN)"
	trees := shardCorpus(200)
	dir := t.TempDir()
	if _, err := Build(dir, trees, Options{MSS: 3, Coding: postings.SubtreeInterval}); err != nil {
		t.Fatal(err)
	}
	intact, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := intact.Search(context.Background(), q, SearchOpts{})
	intact.Close()
	if err != nil || len(res.Matches) < 4 {
		t.Fatalf("vacuous fixture: %d matches, err %v", len(res.Matches), err)
	}
	want := res.Matches
	pl, err := planner.New(query.MustParse(q), 3, postings.SubtreeInterval, nil)
	if err != nil || len(pl.Pieces) != 1 || len(pl.Pieces[0].Slots) != 3 {
		t.Fatalf("vacuous fixture: plan %+v, err %v; want one three-slot piece", pl, err)
	}
	pieceKey := []byte(pl.Pieces[0].Key)

	// Rewrite the piece's list with the instance of a middle match's tree
	// cut to two nodes, keeping the count prefix.
	badTID := want[len(want)/2].TID
	pairs := leafPairs(t, dir)
	cut := false
	for i, kv := range pairs {
		if !bytes.Equal(kv[0], pieceKey) {
			continue
		}
		count, n := binary.Uvarint(kv[1])
		var acc postings.IntervalAccumulator
		for it := postings.NewIntervalIterator(kv[1][n:]); it.Next(); {
			nodes := it.Nodes()
			if it.TID() == badTID && !cut {
				nodes, cut = nodes[:2], true
			}
			acc.Add(it.TID(), nodes)
		}
		pairs[i][1] = append(binary.AppendUvarint(nil, count), acc.Bytes()...)
	}
	if !cut {
		t.Fatalf("vacuous fixture: no instance of tree %d under %q", badTID, pieceKey)
	}
	writeLeaf(t, dir, pairs)

	l := openDir(t, dir, OpenOptions{})
	const msg = "binds 2 nodes, want 3"
	for _, countOnly := range []bool{false, true} {
		if res, err := l.Search(context.Background(), q, SearchOpts{CountOnly: countOnly}); err == nil || !strings.Contains(err.Error(), msg) {
			t.Errorf("countOnly=%v: search gave %+v, err %v; want an error containing %q", countOnly, res, err, msg)
		}
	}
	stream, err := l.SearchStream(context.Background(), q, SearchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Match
	var streamErr error
	for m, err := range stream.All() {
		if err != nil {
			streamErr = err
			break
		}
		got = append(got, m)
	}
	if streamErr == nil || !strings.Contains(streamErr.Error(), msg) {
		t.Errorf("stream ended with err %v; want an error containing %q", streamErr, msg)
	}
	if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) || (len(got) > 0 && got[len(got)-1].TID >= badTID) {
		t.Errorf("stream emitted %v ahead of its error; want a prefix of the intact matches below tree %d", got, badTID)
	}
}

// leafPairs returns every key and value of the index file in dir, in
// key order.
func leafPairs(t *testing.T, dir string) [][2][]byte {
	t.Helper()
	src, err := btree.Open(filepath.Join(dir, indexFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var pairs [][2][]byte
	for it := src.Iterator(nil); it.Next(); {
		pairs = append(pairs, [2][]byte{bytes.Clone(it.Key()), bytes.Clone(it.Value())})
	}
	return pairs
}

// writeLeaf rewrites the index file in dir to hold pairs, which must be
// in key order.
func writeLeaf(t *testing.T, dir string, pairs [][2][]byte) {
	t.Helper()
	b, err := btree.NewBuilder(filepath.Join(dir, indexFileName), pager.DefaultPageSize)
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
}
