package si_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/si"
)

// TestConcurrentAppendSearchProperty is the live-update correctness
// property, run under -race in CI: while appends publish new segments,
// every concurrent search must observe exactly one of the published
// corpus states — matches after an append are the matches before it
// plus the matches in the new trees, with no duplicates or reordering
// from tid rebasing. The generated corpus is prefix-stable, so the
// expected state after each append is the full index's match list
// filtered to the tids published so far.
func TestConcurrentAppendSearchProperty(t *testing.T) {
	trees := si.GenerateCorpus(7, 900)
	cuts := []uint32{500, 700, 900}
	queries := []string{"NP(DT)(NN)", "S(NP)(VP)", "S(//NN)", "PP(IN)(NP)"}

	fullDir := filepath.Join(t.TempDir(), "full")
	if _, err := si.Build(fullDir, trees, si.DefaultBuildOptions()); err != nil {
		t.Fatal(err)
	}
	full, err := si.Open(fullDir)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()

	ctx := context.Background()
	// states[q][k] is the expected match list once tids < cuts[k] are
	// published.
	states := make(map[string][][]si.Match, len(queries))
	for _, q := range queries {
		res, err := full.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count == 0 {
			t.Fatalf("vacuous fixture query %q", q)
		}
		perCut := make([][]si.Match, len(cuts))
		for k, cut := range cuts {
			var ms []si.Match
			for _, m := range res.Matches {
				if m.TID < cut {
					ms = append(ms, m)
				}
			}
			perCut[k] = ms
		}
		states[q] = perCut
	}

	dir := filepath.Join(t.TempDir(), "ix")
	opts := si.DefaultBuildOptions()
	opts.Shards = 2
	if _, err := si.Build(dir, trees[:cuts[0]], opts); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					res, err := ix.Search(ctx, q)
					if err != nil {
						t.Errorf("concurrent search %q: %v", q, err)
						return
					}
					seen := make(map[si.Match]bool, len(res.Matches))
					for _, m := range res.Matches {
						if seen[m] {
							t.Errorf("%q: duplicate match %+v after tid rebasing", q, m)
							return
						}
						seen[m] = true
					}
					okState := false
					for _, want := range states[q] {
						if reflect.DeepEqual(res.Matches, want) {
							okState = true
							break
						}
					}
					if !okState {
						t.Errorf("%q: %d matches correspond to no published corpus state", q, len(res.Matches))
						return
					}
				}
			}(q)
		}
	}

	if _, err := ix.Append(ctx, trees[cuts[0]:cuts[1]]); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if _, err := ix.AppendWith(ctx, trees[cuts[1]:cuts[2]], si.AppendOptions{Shards: 2}); err != nil {
		t.Fatalf("second append: %v", err)
	}
	close(stop)
	wg.Wait()

	// Steady state: every query sees exactly the full corpus's matches.
	for _, q := range queries {
		res, err := ix.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want := states[q][len(cuts)-1]
		if !reflect.DeepEqual(res.Matches, want) {
			t.Fatalf("%q after all appends: %d matches, want %d", q, len(res.Matches), len(want))
		}
		n, err := ix.Count(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("%q count after appends = %d, want %d", q, n, len(want))
		}
	}
	if ix.Segments() != 3 || ix.NumTrees() != 900 {
		t.Fatalf("after appends: %d segments over %d trees, want 3 over 900", ix.Segments(), ix.NumTrees())
	}
}

// TestCloseDuringAllIsClean is the Close-vs-search regression test at
// the public API level (run under -race in CI): Close while a /stream-
// style All() iteration is mid-flight must not crash or corrupt the
// iteration — it completes on its pinned segment set — and calls after
// Close fail with a clean ErrClosed instead of dereferencing closed
// pager files.
func TestCloseDuringAllIsClean(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	opts := si.DefaultBuildOptions()
	opts.Shards = 3
	if _, err := si.Build(dir, si.GenerateCorpus(11, 400), opts); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const q = "NP(DT)(NN)"
	want, err := ix.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Count < 10 {
		t.Fatalf("vacuous fixture: %d matches", want.Count)
	}

	res, err := ix.SearchStream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	var got []si.Match
	for m, err := range res.All() {
		if err != nil {
			t.Fatalf("stream under concurrent Close failed: %v", err)
		}
		if got == nil {
			go func() { closed <- ix.Close() }()
		}
		got = append(got, m)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close during stream: %v", err)
	}
	if !reflect.DeepEqual(got, want.Matches) {
		t.Fatalf("stream yielded %d matches under Close, want %d", len(got), want.Count)
	}

	if _, err := ix.Search(ctx, q); !errors.Is(err, si.ErrClosed) {
		t.Fatalf("search after close: %v, want si.ErrClosed", err)
	}
	if _, err := ix.Append(ctx, si.GenerateCorpus(1, 1)); !errors.Is(err, si.ErrClosed) {
		t.Fatalf("append after close: %v, want si.ErrClosed", err)
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestAppendVisibleWithoutReopen is the acceptance criterion in one
// small test: a query that matches nothing gains matches the moment
// Append returns, on the same open handle.
func TestAppendVisibleWithoutReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := si.Build(dir, si.GenerateCorpus(3, 100), si.DefaultBuildOptions()); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	const q = "NNX(zzyzx)"
	if n, err := ix.Count(ctx, q); err != nil || n != 0 {
		t.Fatalf("unique query matched %d before append (err %v)", n, err)
	}
	tr, err := si.ParseTree(0, "(S (NP (NNX zzyzx)) (VP (VBZ is)))")
	if err != nil {
		t.Fatal(err)
	}
	info, err := ix.Append(ctx, []*si.Tree{tr})
	if err != nil {
		t.Fatal(err)
	}
	if info.Keys == 0 {
		t.Fatal("appended segment reports zero keys")
	}
	n, err := ix.Count(ctx, q)
	if err != nil || n != 1 {
		t.Fatalf("unique query matched %d after append (err %v), want 1", n, err)
	}
	res, err := ix.Search(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].TID != 100 {
		t.Fatalf("appended tree matched as %+v, want tid 100", res.Matches)
	}
	if got, err := ix.Tree(100); err != nil || got.TID != 100 {
		t.Fatalf("Tree(100) = %v, %v", got, err)
	}
	if ix.Generation() != 2 || ix.Segments() != 2 {
		t.Fatalf("generation %d segments %d, want 2/2", ix.Generation(), ix.Segments())
	}
}
