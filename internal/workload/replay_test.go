package workload

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/server"
	"repro/si"
)

// startServer builds a small index and serves it from httptest.
func startServer(t *testing.T) (*httptest.Server, *si.Index) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ix")
	opts := si.DefaultBuildOptions()
	opts.Shards = 2
	if _, err := si.Build(dir, si.GenerateCorpus(2012, 400), opts); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	ts := httptest.NewServer(server.New(ix, server.Config{}))
	t.Cleanup(ts.Close)
	return ts, ix
}

// TestReplaySequential replays the WH set as /search traffic and
// cross-checks the total match volume against direct evaluation.
func TestReplaySequential(t *testing.T) {
	ts, ix := startServer(t)
	queries := ServerQueries()
	if len(queries) != 48 {
		t.Fatalf("WH set has %d queries, want 48", len(queries))
	}
	want := 0
	for _, q := range queries {
		n, err := ix.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want += n
	}
	st, err := Replay(ts.URL, queries, ReplayOptions{Concurrency: 4, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("replay had %d errors", st.Errors)
	}
	if st.Requests != len(queries) || st.Queries != len(queries) {
		t.Fatalf("replay issued %d requests / %d queries, want %d", st.Requests, st.Queries, len(queries))
	}
	if st.Matches != want {
		t.Fatalf("replay saw %d total matches, direct evaluation %d", st.Matches, want)
	}
}

// TestReplayBatched replays the same workload through /batch with
// repeats and concurrency, asserting identical match volume.
func TestReplayBatched(t *testing.T) {
	ts, ix := startServer(t)
	queries := ServerQueries()
	want := 0
	for _, q := range queries {
		n, err := ix.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want += n
	}
	const repeat = 3
	st, err := Replay(ts.URL, queries, ReplayOptions{
		Concurrency: 3, Repeat: repeat, BatchSize: 16, CountOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("replay had %d errors", st.Errors)
	}
	wantReqs := repeat * 3 // 48 queries / 16 per batch
	if st.Requests != wantReqs || st.Queries != repeat*len(queries) {
		t.Fatalf("replay issued %d requests / %d queries, want %d / %d",
			st.Requests, st.Queries, wantReqs, repeat*len(queries))
	}
	if st.Matches != repeat*want {
		t.Fatalf("replay saw %d total matches, want %d", st.Matches, repeat*want)
	}
	// Repeats of identical query text must have hit the plan cache.
	if ix.Stats().PlanCacheHits == 0 {
		t.Fatal("replay repeats never hit the plan cache")
	}
}

// TestReplayLimited replays with a per-query limit and timeout: no
// errors, and the reported match volume cannot exceed limit per query.
func TestReplayLimited(t *testing.T) {
	ts, _ := startServer(t)
	queries := ServerQueries()
	st, err := Replay(ts.URL, queries, ReplayOptions{
		Concurrency: 2, Limit: 1, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("limited replay had %d errors", st.Errors)
	}
	if st.Queries != len(queries) {
		t.Fatalf("replay evaluated %d queries, want %d", st.Queries, len(queries))
	}
}

// TestReplayEmpty rejects an empty workload.
func TestReplayEmpty(t *testing.T) {
	if _, err := Replay("http://localhost:0", nil, ReplayOptions{}); err == nil {
		t.Fatal("empty replay succeeded")
	}
}
