package cluster

// Follower replication tests: Sync must converge a cold directory onto
// the leader's published segment set, transfer only the delta on later
// syncs, be idempotent at the same generation, and leave the follower
// answering queries identically to the leader. RemoveStaleSegments
// must reclaim exactly the directories the manifest dropped.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/si"
)

// startLeader builds a segmented leader index (build + one append to
// promote) and serves it with the replication surface enabled.
func startLeader(t *testing.T, corpus []*si.Tree) (*si.Index, *httptest.Server, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "leader")
	if _, err := si.Build(dir, corpus[:200], si.DefaultBuildOptions()); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if _, err := ix.Append(context.Background(), corpus[200:250]); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(ix, server.Config{MaxMatches: -1, Dir: dir}))
	t.Cleanup(ts.Close)
	return ix, ts, dir
}

// TestSyncReplication drives the full follower lifecycle: cold sync,
// idempotent re-sync, incremental sync after a leader append, and
// query parity between leader and follower at every step.
func TestSyncReplication(t *testing.T) {
	ctx := context.Background()
	corpus := si.GenerateCorpus(99, 300)
	leaderIx, leader, _ := startLeader(t, corpus)

	followerDir := filepath.Join(t.TempDir(), "follower")
	res, err := Sync(ctx, http.DefaultClient, leader.URL, followerDir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || res.Fetched == 0 || len(res.Segments) == 0 {
		t.Fatalf("cold sync = %+v, want fetched segments and a changed manifest", res)
	}
	if res.Generation != leaderIx.Generation() {
		t.Fatalf("sync generation %d, leader %d", res.Generation, leaderIx.Generation())
	}

	fix, err := si.Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fix.Close() })
	if fix.NumTrees() != leaderIx.NumTrees() {
		t.Fatalf("follower has %d trees, leader %d", fix.NumTrees(), leaderIx.NumTrees())
	}

	// A second sync at the same generation is a no-op.
	res, err = Sync(ctx, http.DefaultClient, leader.URL, followerDir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed || res.Fetched != 0 {
		t.Fatalf("same-generation sync = %+v, want no-op", res)
	}

	// Leader appends: the next sync transfers only the new segment and
	// the follower reloads onto it.
	if _, err := leaderIx.Append(ctx, corpus[250:]); err != nil {
		t.Fatal(err)
	}
	res, err = Sync(ctx, http.DefaultClient, leader.URL, followerDir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed || res.Fetched != 1 {
		t.Fatalf("incremental sync = %+v, want exactly the one new segment", res)
	}
	if _, err := fix.Reload(); err != nil {
		t.Fatal(err)
	}
	if fix.NumTrees() != leaderIx.NumTrees() || fix.Generation() != leaderIx.Generation() {
		t.Fatalf("follower at %d trees gen %d, leader %d trees gen %d",
			fix.NumTrees(), fix.Generation(), leaderIx.NumTrees(), leaderIx.Generation())
	}

	// Query parity: the follower serves the same answers.
	follower := httptest.NewServer(server.New(fix, server.Config{MaxMatches: -1}))
	t.Cleanup(follower.Close)
	for _, q := range parityQueries {
		path := "/search?q=" + q + "&limit=-1"
		var want, got server.SearchResponse
		getJSON(t, leader.URL+path, &want)
		getJSON(t, follower.URL+path, &got)
		sameResult(t, "follower "+path, want.QueryResult, got.QueryResult)
	}
}

// TestSyncRejectsLegacyLeader requires a clear error when the leader
// index was never promoted to the segmented layout.
func TestSyncRejectsLegacyLeader(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "legacy")
	if _, err := si.Build(dir, si.GenerateCorpus(5, 50), si.DefaultBuildOptions()); err != nil {
		t.Fatal(err)
	}
	ix, err := si.OpenWith(dir, si.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	ts := httptest.NewServer(server.New(ix, server.Config{Dir: dir}))
	t.Cleanup(ts.Close)

	_, err = Sync(context.Background(), http.DefaultClient, ts.URL, filepath.Join(t.TempDir(), "f"))
	if err == nil {
		t.Fatal("sync from a legacy leader succeeded")
	}
}

// TestRemoveStaleSegments reclaims dropped segments and staging
// leftovers while keeping everything the manifest still references.
func TestRemoveStaleSegments(t *testing.T) {
	ctx := context.Background()
	corpus := si.GenerateCorpus(99, 300)
	_, leader, _ := startLeader(t, corpus)
	followerDir := filepath.Join(t.TempDir(), "follower")
	res, err := Sync(ctx, http.DefaultClient, leader.URL, followerDir)
	if err != nil {
		t.Fatal(err)
	}

	// Plant a dropped segment and an interrupted download.
	stale := filepath.Join(followerDir, "seg-000099")
	staging := filepath.Join(followerDir, ".sync-seg-000042")
	for _, d := range []string{stale, staging} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveStaleSegments(followerDir, res.Segments); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{stale, staging} {
		if _, err := os.Stat(d); !os.IsNotExist(err) {
			t.Fatalf("%s survived the reclaim", d)
		}
	}
	raw, err := os.ReadFile(filepath.Join(followerDir, core.MetaFileName))
	if err != nil {
		t.Fatal(err)
	}
	var man core.Meta
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	for _, seg := range man.Segments {
		if _, err := os.Stat(filepath.Join(followerDir, seg)); err != nil {
			t.Fatalf("live segment %s missing after reclaim: %v", seg, err)
		}
	}
}
