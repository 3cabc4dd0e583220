package server

// Tests for the serving surface the cluster layer depends on:
// admission control (MaxInflight → 429 + Retry-After, never queueing),
// readiness vs liveness (/readyz flips 503 while draining, /healthz
// does not), request-ID propagation, and the replication endpoints
// (/manifest byte-identical to disk, /segment range-served, traversal
// structurally rejected).

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/si"
)

// newSurfaceServer builds a small index, promotes it to segmented via
// one append, and returns the raw handler (for white-box access to the
// admission semaphore and drain flag) plus an httptest server over it.
// withDir points cfg.Dir at the index directory, enabling the
// replication surface.
func newSurfaceServer(t *testing.T, cfg Config, withDir bool) (*Server, *httptest.Server, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ix")
	trees := si.GenerateCorpus(7, 200)
	if _, err := si.Build(dir, trees[:150], si.DefaultBuildOptions()); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if _, err := ix.Append(context.Background(), trees[150:]); err != nil {
		t.Fatal(err)
	}
	if withDir {
		cfg.Dir = dir
	}
	s := New(ix, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, dir
}

// get issues a GET and returns the response; callers close the body.
func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdmissionControl asserts a server at MaxInflight answers every
// query endpoint with an immediate 429 + Retry-After — no queueing —
// and recovers the moment a slot frees.
func TestAdmissionControl(t *testing.T) {
	s, ts, _ := newSurfaceServer(t, Config{MaxMatches: -1, MaxInflight: 1}, false)
	// Occupy the only evaluation slot directly: deterministic, no
	// reliance on a slow query to hold it.
	s.inflight <- struct{}{}

	for _, ep := range []string{"/search?q=NP(DT)(NN)", "/count?q=NP(DT)(NN)", "/stream?q=NP(DT)(NN)"} {
		resp := get(t, ts.URL+ep)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s at capacity: status %d, want 429", ep, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatalf("%s at capacity: no Retry-After header", ep)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"queries":["NP(DT)(NN)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("/batch at capacity: status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	// Health, readiness and stats stay reachable under saturation —
	// they are how operators see the saturation.
	for _, ep := range []string{"/healthz", "/readyz", "/stats"} {
		resp := get(t, ts.URL+ep)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s at capacity: status %d, want 200", ep, resp.StatusCode)
		}
		resp.Body.Close()
	}

	var st StatsResponse
	resp = get(t, ts.URL+"/stats")
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Serving.Rejected != 4 {
		t.Fatalf("rejected counter = %d, want 4", st.Serving.Rejected)
	}
	if st.Serving.MaxInflight != 1 {
		t.Fatalf("max_inflight echo = %d, want 1", st.Serving.MaxInflight)
	}

	<-s.inflight // release the slot
	resp = get(t, ts.URL+"/search?q=NP(DT)(NN)")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestReadyzDraining asserts /readyz flips to 503 when draining begins
// while /healthz (liveness) stays 200 — the split that lets a router
// drain a node without the process looking dead.
func TestReadyzDraining(t *testing.T) {
	s, ts, _ := newSurfaceServer(t, Config{}, false)
	var ready ReadyResponse
	resp := get(t, ts.URL+"/readyz")
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !ready.Ready || ready.Trees == 0 || ready.Generation == 0 {
		t.Fatalf("serving /readyz = %d %+v, want 200 ready with corpus info", resp.StatusCode, ready)
	}

	s.SetDraining(true)
	resp = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	resp = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz: status %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
	resp.Body.Close()
	// Draining rejects nothing already accepted — and new queries are
	// the load balancer's job to stop, not the node's.
	resp = get(t, ts.URL+"/search?q=NP(DT)(NN)")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining /search: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	s.SetDraining(false)
	resp = get(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered /readyz: status %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRequestID asserts the accept-or-generate contract: a sane client
// ID is echoed verbatim, a missing or malformed one is replaced, and
// /stream echoes the ID in its NDJSON summary line.
func TestRequestID(t *testing.T) {
	_, ts, _ := newSurfaceServer(t, Config{}, false)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/search?q=NP(DT)(NN)", nil)
	req.Header.Set(RequestIDHeader, "client-rid-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "client-rid-42" {
		t.Fatalf("sane client id echoed as %q", got)
	}

	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	resp = get(t, ts.URL+"/search?q=NP(DT)(NN)")
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); !hexID.MatchString(got) {
		t.Fatalf("generated id = %q, want 16 hex chars", got)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/search?q=NP(DT)(NN)", nil)
	req.Header.Set(RequestIDHeader, strings.Repeat("x", 200))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); !hexID.MatchString(got) {
		t.Fatalf("oversized client id passed through as %q", got)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/stream?q=NP(DT)(NN)&limit=2", nil)
	req.Header.Set(RequestIDHeader, "stream-rid-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var summary StreamSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"done":true`) {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				t.Fatal(err)
			}
		}
	}
	if summary.RequestID != "stream-rid-7" {
		t.Fatalf("stream summary request_id = %q, want stream-rid-7", summary.RequestID)
	}
}

// TestReplicationSurface asserts /manifest serves the on-disk manifest
// byte-for-byte, /segment range-serves real payload files, and the
// path allowlist rejects everything else (traversal included).
func TestReplicationSurface(t *testing.T) {
	_, ts, dir := newSurfaceServer(t, Config{}, true)

	want, err := os.ReadFile(filepath.Join(dir, core.MetaFileName))
	if err != nil {
		t.Fatal(err)
	}
	resp := get(t, ts.URL+"/manifest")
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(got) != string(want) {
		t.Fatalf("/manifest: status %d, %d bytes; want 200 with the %d on-disk bytes", resp.StatusCode, len(got), len(want))
	}

	var man core.Meta
	if err := json.Unmarshal(want, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) == 0 {
		t.Fatal("fixture manifest has no segments; append should have promoted it")
	}
	seg := man.Segments[0]

	// Pick a real payload file from the segment's own manifest — the
	// layout (root files vs shard subdirectories) depends on the build.
	segMetaRaw, err := os.ReadFile(filepath.Join(dir, seg, core.MetaFileName))
	if err != nil {
		t.Fatal(err)
	}
	var segMeta core.Meta
	if err := json.Unmarshal(segMetaRaw, &segMeta); err != nil {
		t.Fatal(err)
	}
	files, err := core.SegmentPayload(segMeta)
	if err != nil {
		t.Fatal(err)
	}
	payload := ""
	for _, f := range files {
		if f != core.MetaFileName {
			payload = f
			break
		}
	}
	if payload == "" {
		t.Fatalf("segment %s has no payload beyond its meta", seg)
	}

	resp = get(t, ts.URL+"/segment/"+seg+"/"+core.MetaFileName)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != string(segMetaRaw) {
		t.Fatalf("/segment/%s/%s: status %d, want 200 with the on-disk bytes", seg, core.MetaFileName, resp.StatusCode)
	}

	// Range-served: a follower resuming an interrupted pull asks for a
	// byte range and gets 206 with exactly those bytes.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/segment/"+seg+"/"+payload, nil)
	req.Header.Set("Range", "bytes=0-9")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range request for %s: status %d, want 206", payload, resp.StatusCode)
	}
	if len(part) != 10 {
		t.Fatalf("range request returned %d bytes, want 10", len(part))
	}

	for _, bad := range []string{
		"/segment/" + seg + "/../" + core.MetaFileName,
		"/segment/" + seg + "/..%2F" + core.MetaFileName,
		"/segment/not-a-segment/" + core.MetaFileName,
		"/segment/" + seg + "/trees.exe",
		"/segment/" + seg + "/shard-9999x/" + core.MetaFileName,
		"/segment/" + seg,
	} {
		// Send the raw path via URL.Opaque so the client does not clean
		// ".." away before the server ever sees it.
		req, err := http.NewRequest(http.MethodGet, ts.URL+bad, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.URL.Opaque = strings.TrimPrefix(ts.URL, "http:") + bad
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("GET %s: status 200, want rejection", bad)
		}
	}
}

// TestReplicationDisabled asserts the replication surface 404s when
// the server was not configured with its index directory.
func TestReplicationDisabled(t *testing.T) {
	_, ts, _ := newSurfaceServer(t, Config{}, false)
	for _, ep := range []string{"/manifest", "/segment/seg-000001/meta.json"} {
		resp := get(t, ts.URL+ep)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without Dir: status %d, want 404", ep, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
