package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/postings"
	"repro/internal/subtree"
	"repro/internal/workload"
)

// noListMemo takes the decoded-list memo out of every leaf l serves, so
// each of its evaluations streams from the fetched posting value — the
// reference a memo-served evaluation must equal. Call it before l's
// first search.
func noListMemo(l *Live) {
	for _, leaf := range l.cur.Load().set.leaves {
		leaf.lists = nil
	}
}

// memoQueries are the WH queries plus lexical and //-queries whose
// frequent pieces repeat across the set.
func memoQueries() []string {
	return append(workload.ServerQueries(),
		"S(//NN(rodent))", "NP(DT)(NN(plan))", "VP(VBZ)(NP(//NN(leader)))", "NP(DT)(NN)", "S(NP)(VP)", "S(//NN)")
}

// sameResult fails t unless two results of one search agree on every
// surface the memo could move: matches, count, truncation, work
// counters and explain's per-piece keys, estimates and actuals.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !sameMatches(got.Matches, want.Matches) || got.Count != want.Count || got.Stats.Truncated != want.Stats.Truncated {
		t.Fatalf("%s: memo %d matches (count %d, truncated %v), stream %d (count %d, truncated %v)", what,
			len(got.Matches), got.Count, got.Stats.Truncated, len(want.Matches), want.Count, want.Stats.Truncated)
	}
	if got.Stats.JoinRows != want.Stats.JoinRows || got.Stats.PostingFetches != want.Stats.PostingFetches {
		t.Fatalf("%s: memo %d join rows and %d fetches, stream %d and %d", what,
			got.Stats.JoinRows, got.Stats.PostingFetches, want.Stats.JoinRows, want.Stats.PostingFetches)
	}
	if !slices.Equal(got.Stats.Pieces, want.Stats.Pieces) {
		t.Fatalf("%s: memo pieces %+v, stream %+v", what, got.Stats.Pieces, want.Stats.Pieces)
	}
}

// TestListMemoMatchesStream is the memo's differential test: on 1 and 4
// shards, mapped and pread, with tombstones both inside the gaps seeks
// jump and beside matching trees, every search served from decoded
// lists equals the same search streamed from the posting values —
// matches, count, join rows, posting fetches and explain's actuals —
// through Search with and without limits and offsets, count-only
// search, SearchStream and SearchBatch.
func TestListMemoMatchesStream(t *testing.T) {
	ctx := context.Background()
	trees := shardCorpus(1500)
	queries := memoQueries()
	for _, shards := range []int{1, 4} {
		dir := filepath.Join(t.TempDir(), "ix")
		if _, err := BuildSharded(dir, trees, Options{MSS: 3, Coding: postings.RootSplit}, shards); err != nil {
			t.Fatal(err)
		}
		var dead []int
		for tid := 50; tid < len(trees); tid += 97 {
			dead = append(dead, tid)
		}
		w := openDir(t, dir, OpenOptions{})
		for _, q := range []string{"NP(DT)(NN)", "S(//NN)"} {
			res, err := w.Search(ctx, q, SearchOpts{Limit: 12})
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range res.Matches {
				if i%3 == 0 {
					dead = append(dead, int(m.TID))
				}
			}
		}
		if _, err := w.Delete(ctx, dead); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []MmapMode{MmapAuto, MmapOff} {
			name := fmt.Sprintf("shards=%d mmap=%v", shards, mode == MmapAuto)
			ref := openDir(t, dir, OpenOptions{Mmap: mode})
			noListMemo(ref)
			memo := openDir(t, dir, OpenOptions{Mmap: mode})
			for range 2 { // the second fetch of a key admits its list
				if _, err := memo.SearchBatch(ctx, queries, SearchOpts{CountOnly: true}); err != nil {
					t.Fatal(err)
				}
			}
			warm := memo.Counters()
			if warm.ListMemoAdmissions == 0 || warm.ListMemoLists == 0 {
				t.Fatalf("%s: no list admitted: %+v", name, warm)
			}
			for _, q := range queries {
				for _, opts := range []SearchOpts{
					{Explain: true}, {CountOnly: true, Explain: true}, {Limit: 5, Explain: true}, {Offset: 7, Limit: 20, Explain: true},
				} {
					want, err := ref.Search(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := memo.Search(ctx, q, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, fmt.Sprintf("%s %q %+v", name, q, opts), got, want)
				}
				opts := SearchOpts{Offset: 3, Limit: 10, Explain: true}
				want, err := ref.SearchStream(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := memo.SearchStream(ctx, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				want.Matches, _ = drainStream(t, want)
				got.Matches, _ = drainStream(t, got)
				sameResult(t, fmt.Sprintf("%s stream %q", name, q), got, want)
			}
			wants, err := ref.SearchBatch(ctx, queries, SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			gots, err := memo.SearchBatch(ctx, queries, SearchOpts{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				sameResult(t, fmt.Sprintf("%s batch %q", name, queries[i]), gots[i], wants[i])
			}
			if c := memo.Counters(); c.ListMemoHits == warm.ListMemoHits {
				t.Fatalf("%s: no search was served from the memo", name)
			}
			if c := ref.Counters(); c.ListMemoHits != 0 || c.ListMemoAdmissions != 0 {
				t.Fatalf("%s: the reference used a memo: %+v", name, c)
			}
		}
	}
}

// tabledValue returns a posting value of a tabled list — count prefix,
// skip-table header, table, records — with its table entries (last-tid
// delta, record count, byte length) passed through edit.
func tabledValue(t *testing.T, val []byte, edit func(entries [][3]uint64)) []byte {
	t.Helper()
	count, n := binary.Uvarint(val)
	p := val[n:]
	if !postings.RootTabled(p) {
		t.Fatalf("the value is not a tabled list")
	}
	tableLen, n1 := binary.Uvarint(p[1:])
	recLen, n2 := binary.Uvarint(p[1+n1:])
	tab, recs := p[1+n1+n2:][:tableLen], p[1+n1+n2+int(tableLen):]
	var entries [][3]uint64
	for len(tab) > 0 {
		var e [3]uint64
		for i := range e {
			x, k := binary.Uvarint(tab)
			e[i], tab = x, tab[k:]
		}
		entries = append(entries, e)
	}
	edit(entries)
	var table []byte
	for _, e := range entries {
		for _, x := range e {
			table = binary.AppendUvarint(table, x)
		}
	}
	out := append(binary.AppendUvarint(nil, count), 0)
	out = binary.AppendUvarint(out, uint64(len(table)))
	out = binary.AppendUvarint(out, recLen)
	return append(append(out, table...), recs...)
}

// TestListMemoRefusesCorruptLists feeds repeated evaluations tabled
// lists whose records or skip tables are corrupt — a record cut short,
// a block's record count or last tid that disagrees with its records —
// and holds each evaluation, full, count-only and bounded, to the same
// evaluation with no memo: the same matches, rows and error, every
// time. None of the lists is admitted.
func TestListMemoRefusesCorruptLists(t *testing.T) {
	ctx := context.Background()
	l := openLive(t, shardCorpus(1500), 1, OpenOptions{})
	e := l.cur.Load()
	leaf := e.set.leaves[0]
	pl, _, err := l.planText(e, "S(NP(DT)(NN))(VP)")
	if err != nil {
		t.Fatal(err)
	}
	tabled := 0
	for _, pp := range pl.Pieces {
		val, _, err := leaf.tree.Get([]byte(pp.Key))
		if err != nil {
			t.Fatal(err)
		}
		if _, n := binary.Uvarint(val); postings.RootTabled(val[n:]) {
			tabled++
		}
	}
	if tabled < 2 {
		t.Fatalf("vacuous fixture: %d of the plan's %d lists are tabled", tabled, len(pl.Pieces))
	}
	for _, c := range []struct {
		name    string
		corrupt func(val []byte) []byte
	}{
		{"cut record", func(val []byte) []byte { return val[:len(val)-1] }},
		{"block count", func(val []byte) []byte {
			return tabledValue(t, val, func(es [][3]uint64) { es[len(es)/2][1]-- })
		}},
		{"block last tid", func(val []byte) []byte {
			return tabledValue(t, val, func(es [][3]uint64) { es[0][0]++ })
		}},
	} {
		leaf.lists = newListMemo(leaf.tree.Stats().SizeBytes) // a refusal is remembered per key
		get := func(k subtree.Key) ([]byte, bool, error) {
			val, found, err := leaf.getPosting(k)
			if err != nil || !found {
				return val, found, err
			}
			if _, n := binary.Uvarint(val); postings.RootTabled(val[n:]) {
				val = c.corrupt(slices.Clone(val))
			}
			return val, true, nil
		}
		for _, ev := range []evalOpts{{}, {countOnly: true}, {target: 3}} {
			memo := leaf.lists
			leaf.lists = nil
			wantMs, wantN, wantRows, wantErr := leaf.evalPlan(ctx, pl, get, ev)
			leaf.lists = memo
			for rep := range 3 {
				ms, n, rows, err := leaf.evalPlan(ctx, pl, get, ev)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !sameMatches(ms, wantMs) || n != wantN || rows != wantRows {
					t.Fatalf("%s %+v, evaluation %d: %d matches, %d rows, err %v; without the memo %d, %d, %v",
						c.name, ev, rep, n, rows, err, wantN, wantRows, wantErr)
				}
			}
		}
		if st := leaf.lists.stats(); st.Admissions != 0 || st.Hits != 0 {
			t.Fatalf("%s: a corrupt list was admitted: %+v", c.name, st)
		}
	}
}

// memoList builds a tabled root-split list of n postings, one tree
// each, and returns its wire form.
func memoList(n int) []byte {
	acc := postings.NewRootAccumulator(true)
	for tid := range uint32(n) {
		acc.Add(tid, postings.NodeRef{Pre: 1, Post: 1, Level: 1})
	}
	return acc.Bytes()
}

// TestListMemoBound cycles more lists through a memo than its bound
// holds: its bytes never pass the bound and always sum its lists, an
// admission that would pass it clears every list and seen key first,
// and a list larger than the whole bound is never decoded or held.
func TestListMemoBound(t *testing.T) {
	const n = 300
	payload := memoList(n)
	m := newListMemo(0)
	m.limit = 2*listBytes(n) + listBytes(n)/2 // room for two lists
	keys := []subtree.Key{"a", "b", "c", "d", "e"}
	for round := range 3 {
		for _, k := range keys {
			for range 2 {
				if d := m.get(k, n, payload); d != nil && len(d.tids) != n {
					t.Fatalf("%s: a %d-posting list held %d", k, n, len(d.tids))
				}
				st := m.stats()
				if st.Bytes > m.limit || st.Bytes != int64(st.Lists)*listBytes(n) {
					t.Fatalf("round %d, %s: %d lists in %d bytes, bound %d", round, k, st.Lists, st.Bytes, m.limit)
				}
			}
		}
	}
	st := m.stats()
	if st.Clears == 0 || st.Admissions != 15 || st.Lists != 1 {
		t.Fatalf("5 keys cycled 3 times through room for 2: %+v, want clears, 15 admissions and 1 list held", st)
	}
	// The last clear took the seen keys too: a key held before it is
	// streamed on its next fetch and admitted on the one after.
	if d := m.get("a", n, payload); d != nil {
		t.Fatalf("a key seen before the last clear was served from the memo")
	}
	big := memoList(4 * n)
	for range 3 {
		if d := m.get("big", 4*n, big); d != nil {
			t.Fatalf("a list past the whole bound was decoded")
		}
	}
	if _, seen := m.seen["big"]; seen {
		t.Fatalf("a list past the whole bound was remembered")
	}
}

// TestListMemoConcurrentAdmission races many evaluations admitting one
// key, on a bare memo and through a fresh handle's searches (run it
// under -race): one list is held and counted, every reader gets it, and
// every search answers as the memo-less reference does.
func TestListMemoConcurrentAdmission(t *testing.T) {
	const n = 500
	payload := memoList(n)
	m := newListMemo(1 << 30)
	m.get("k", n, payload)
	got := make([]*decodedList, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.get("k", n, payload)
		}()
	}
	wg.Wait()
	for _, d := range got {
		if d == nil || d != got[0] {
			t.Fatalf("concurrent readers got different lists: %v", got)
		}
	}
	if st := m.stats(); st.Lists != 1 || st.Admissions != 1 || st.Bytes != listBytes(n) {
		t.Fatalf("one key admitted concurrently: %+v", st)
	}
	// The decoder that loses a race is handed the list stored first.
	if d := m.admit("k", &decodedList{tids: make([]uint32, n), refs: make([]postings.NodeRef, n)}); d != got[0] {
		t.Fatalf("a second admission of a held key replaced it")
	}

	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, shardCorpus(1000), Options{MSS: 3, Coding: postings.RootSplit}, 2); err != nil {
		t.Fatal(err)
	}
	ref := openDir(t, dir, OpenOptions{})
	noListMemo(ref)
	l := openDir(t, dir, OpenOptions{})
	queries := []string{"NP(DT)(NN)", "S(NP)(VP)", "S(NP(DT)(NN))(VP(VBZ))"}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = ref.Search(ctx, q, SearchOpts{Explain: true}); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := range 4 {
				i := (g + rep) % len(queries)
				res, err := l.Search(ctx, queries[i], SearchOpts{Explain: true})
				if err != nil {
					errs <- err
					return
				}
				if !sameMatches(res.Matches, want[i].Matches) || res.Stats.JoinRows != want[i].Stats.JoinRows {
					errs <- fmt.Errorf("%q: %d matches and %d rows, want %d and %d", queries[i],
						len(res.Matches), res.Stats.JoinRows, len(want[i].Matches), want[i].Stats.JoinRows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c := l.Counters(); c.ListMemoAdmissions == 0 || c.ListMemoHits == 0 {
		t.Fatalf("concurrent searches neither admitted nor hit: %+v", c)
	}
}
