package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/si"
)

var parityQueries = []string{
	"NP(DT)(NN)",
	"S(NP)(VP)",
	"VP(VBZ)(NP(DT)(NN))",
	"S(//NN)",
	"NP(//DT(the))",
	"PP(IN)(NP)",
	"ZZZ(QQQ)", // no matches
}

// newTestServer builds a small sharded index and returns an httptest
// server over it plus the raw index for ground truth.
func newTestServer(t *testing.T, shards int, cfg Config) (*httptest.Server, *si.Index) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ix")
	trees := si.GenerateCorpus(2012, 600)
	opts := si.DefaultBuildOptions()
	opts.Shards = shards
	if _, err := si.Build(dir, trees, opts); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	ts := httptest.NewServer(New(ix, cfg))
	t.Cleanup(ts.Close)
	return ts, ix
}

// getJSON decodes a GET response into out, failing on non-200.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// TestSearchCountParity is the acceptance check: /search and /count
// agree exactly with Index.Search and Index.Count.
func TestSearchCountParity(t *testing.T) {
	ts, ix := newTestServer(t, 3, Config{MaxMatches: -1})
	for _, q := range parityQueries {
		res, err := ix.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Matches
		var sr SearchResponse
		getJSON(t, ts.URL+"/search?q="+urlQueryEscape(q), &sr)
		if sr.Count != len(want) || len(sr.Matches) != len(want) {
			t.Fatalf("/search %q: count %d matches %d, want %d", q, sr.Count, len(sr.Matches), len(want))
		}
		for i, m := range want {
			if sr.Matches[i].TID != m.TID || sr.Matches[i].Root != m.Root {
				t.Fatalf("/search %q: match %d = %+v, want %+v", q, i, sr.Matches[i], m)
			}
		}

		wantN, err := ix.Count(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var cr SearchResponse
		getJSON(t, ts.URL+"/count?q="+urlQueryEscape(q), &cr)
		if cr.Count != wantN {
			t.Fatalf("/count %q = %d, want %d", q, cr.Count, wantN)
		}
		if len(cr.Matches) != 0 {
			t.Fatalf("/count %q returned %d matches", q, len(cr.Matches))
		}
	}
}

// TestBatchParity asserts /batch equals per-query Index.Search.
func TestBatchParity(t *testing.T) {
	ts, ix := newTestServer(t, 2, Config{MaxMatches: -1})
	body, _ := json.Marshal(BatchRequest{Queries: parityQueries})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch: status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != len(parityQueries) {
		t.Fatalf("/batch: %d results, want %d", len(br.Results), len(parityQueries))
	}
	for i, q := range parityQueries {
		res, err := ix.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Matches
		got := br.Results[i]
		if got.Query != q || got.Count != len(want) || len(got.Matches) != len(want) {
			t.Fatalf("/batch %q: count %d matches %d, want %d", q, got.Count, len(got.Matches), len(want))
		}
		for j, m := range want {
			if got.Matches[j].TID != m.TID || got.Matches[j].Root != m.Root {
				t.Fatalf("/batch %q: match %d = %+v, want %+v", q, j, got.Matches[j], m)
			}
		}
	}
}

// TestLimitOffsetWindow asserts limit/offset select the right window
// of the full result set and flag truncation, and that /count stays
// exact regardless.
func TestLimitOffsetWindow(t *testing.T) {
	for _, shards := range []int{1, 3} {
		ts, ix := newTestServer(t, shards, Config{})
		q := "NP(DT)(NN)"
		res, err := ix.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Matches
		if len(want) < 4 {
			t.Skipf("corpus yields only %d matches for %s", len(want), q)
		}
		var sr SearchResponse
		getJSON(t, ts.URL+"/search?q="+urlQueryEscape(q)+"&limit=2&offset=1", &sr)
		if len(sr.Matches) != 2 || !sr.Truncated {
			t.Fatalf("shards=%d: matches %d truncated=%v, want 2/true", shards, len(sr.Matches), sr.Truncated)
		}
		for i := 0; i < 2; i++ {
			if sr.Matches[i].TID != want[i+1].TID || sr.Matches[i].Root != want[i+1].Root {
				t.Fatalf("shards=%d: window match %d = %+v, want %+v", shards, i, sr.Matches[i], want[i+1])
			}
		}
		if sr.Count < len(sr.Matches)+1 || sr.Count > len(want) {
			t.Fatalf("shards=%d: truncated count %d outside [3, %d]", shards, sr.Count, len(want))
		}
		if sr.Stats == nil || sr.Stats.ShardsConsulted < 1 || sr.Stats.ShardsConsulted > shards {
			t.Fatalf("shards=%d: stats %+v", shards, sr.Stats)
		}
		// The dedicated count path stays exact despite any limit use.
		var cr SearchResponse
		getJSON(t, ts.URL+"/count?q="+urlQueryEscape(q), &cr)
		if cr.Count != len(want) {
			t.Fatalf("shards=%d: /count = %d, want %d", shards, cr.Count, len(want))
		}
	}
}

// TestStreamNDJSON asserts /stream yields one match per line followed
// by a done summary: the match window agrees with Index.Search and the
// summary count is a truncation-flagged lower bound of the exact
// total (incremental evaluation stops counting when the limit is
// reached).
func TestStreamNDJSON(t *testing.T) {
	ts, ix := newTestServer(t, 2, Config{})
	q := "NP(DT)(NN)"
	full, err := ix.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search(context.Background(), q, si.WithLimit(5))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/stream?q=" + urlQueryEscape(q) + "&limit=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/stream: content type %q", ct)
	}
	var matches []MatchJSON
	var summary StreamSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var m MatchJSON
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatal(err)
		}
		matches = append(matches, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !summary.Done {
		t.Fatal("stream ended without a done summary line")
	}
	if len(matches) != len(res.Matches) {
		t.Fatalf("stream: %d match lines, want %d", len(matches), len(res.Matches))
	}
	if summary.Count < len(matches) || summary.Count > full.Count {
		t.Fatalf("stream summary count %d outside [%d, %d]", summary.Count, len(matches), full.Count)
	}
	if !summary.Truncated {
		t.Fatal("limited stream summary must flag truncation (its count is a lower bound)")
	}
	if summary.Error != "" {
		t.Fatalf("clean stream reported error %q", summary.Error)
	}
	for i, m := range res.Matches {
		if matches[i].TID != m.TID || matches[i].Root != m.Root {
			t.Fatalf("stream match %d = %+v, want %+v", i, matches[i], m)
		}
	}
}

// blockingWriter is an http.ResponseWriter that parks the handler
// after its first payload write until the test releases it — the
// deterministic way to observe the handler mid-stream without racing
// socket buffers.
type blockingWriter struct {
	header     http.Header
	buf        bytes.Buffer
	firstWrite chan struct{} // closed once the first body write lands
	release    chan struct{} // handler blocks here after that write
	blocked    bool
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{
		header:     make(http.Header),
		firstWrite: make(chan struct{}),
		release:    make(chan struct{}),
	}
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	n, _ := w.buf.Write(p)
	if !w.blocked {
		w.blocked = true
		close(w.firstWrite)
		<-w.release
	}
	return n, nil
}

// TestStreamFirstLineBeforeEvaluationCompletes is the incremental
// /stream acceptance test: the first NDJSON line must be written while
// evaluation is still running. The handler is parked on its first
// write; at that instant the index must have issued strictly fewer
// posting fetches than a full evaluation needs (later shards not yet
// consulted), proving the line preceded the work rather than following
// a materialized result.
func TestStreamFirstLineBeforeEvaluationCompletes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	trees := si.GenerateCorpus(2012, 600)
	opts := si.DefaultBuildOptions()
	opts.Shards = 4
	if _, err := si.Build(dir, trees, opts); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	const q = "NP(DT)(NN)" // matches spread across every shard

	base := ix.Stats().PostingFetches
	if _, err := ix.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	fullFetches := ix.Stats().PostingFetches - base

	srv := New(ix, Config{MaxMatches: -1})
	w := newBlockingWriter()
	req := httptest.NewRequest("GET", "/stream?q="+urlQueryEscape(q), nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(w, req)
	}()

	select {
	case <-w.firstWrite:
	case <-time.After(10 * time.Second):
		t.Fatal("no stream output within 10s")
	}
	// The handler is parked right after its first line hit the wire;
	// evaluation cannot advance while it is parked.
	midFetches := ix.Stats().PostingFetches - base - fullFetches
	if midFetches >= fullFetches {
		t.Fatalf("first NDJSON line written only after full evaluation: %d fetches issued, full evaluation needs %d",
			midFetches, fullFetches)
	}
	close(w.release)
	<-done

	// Sanity: the drained stream is well-formed NDJSON ending in a
	// clean summary.
	lines := bytes.Split(bytes.TrimSpace(w.buf.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream produced %d lines", len(lines))
	}
	var summary StreamSummary
	if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil || !summary.Done {
		t.Fatalf("bad summary line %q: %v", lines[len(lines)-1], err)
	}
	if summary.Error != "" {
		t.Fatalf("stream failed: %s", summary.Error)
	}
	if got := len(lines) - 1; got != summary.Count {
		t.Fatalf("unlimited stream wrote %d match lines, summary count %d", got, summary.Count)
	}
}

// TestClientLimitRespectedWhenCapDisabled is the effectiveLimit
// regression test: with MaxMatches negative ("no cap"), an explicit
// client limit must bound the result rather than being replaced by
// "unlimited", while the cap-less default stays unlimited.
func TestClientLimitRespectedWhenCapDisabled(t *testing.T) {
	ts, ix := newTestServer(t, 2, Config{MaxMatches: -1})
	q := "NP(DT)(NN)"
	full, err := ix.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Count < 5 {
		t.Fatalf("vacuous corpus: only %d matches", full.Count)
	}
	var limited SearchResponse
	getJSON(t, ts.URL+"/search?q="+urlQueryEscape(q)+"&limit=3", &limited)
	if len(limited.Matches) != 3 || !limited.Truncated {
		t.Fatalf("cap disabled: limit=3 returned %d matches truncated=%v; the client's limit was ignored",
			len(limited.Matches), limited.Truncated)
	}
	var all SearchResponse
	getJSON(t, ts.URL+"/search?q="+urlQueryEscape(q), &all)
	if len(all.Matches) != full.Count || all.Truncated {
		t.Fatalf("cap disabled, no limit: %d matches truncated=%v, want the full %d",
			len(all.Matches), all.Truncated, full.Count)
	}
}

// TestRequestTimeout asserts an absurdly small request timeout aborts
// evaluation with 504 rather than hanging or answering 200 — on
// /stream too: its incremental evaluation must pull the first match
// before committing the 200, so a pre-stream failure keeps /search's
// status semantics.
func TestRequestTimeout(t *testing.T) {
	ts, _ := newTestServer(t, 2, Config{})
	for _, ep := range []string{"/search", "/stream"} {
		resp, err := http.Get(ts.URL + ep + "?q=" + urlQueryEscape("S(//NN)") + "&timeout=1ns")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("timed-out %s: status %d, want %d", ep, resp.StatusCode, http.StatusGatewayTimeout)
		}
	}
}

// TestServerDefaultTimeout asserts Config.Timeout bounds requests that
// ask for more (or for nothing).
func TestServerDefaultTimeout(t *testing.T) {
	ts, _ := newTestServer(t, 1, Config{Timeout: time.Nanosecond})
	for _, u := range []string{
		"/search?q=" + urlQueryEscape("S(//NN)"),                 // no request timeout: default applies
		"/search?q=" + urlQueryEscape("S(//NN)") + "&timeout=1h", // cannot extend past the default
	} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want %d", u, resp.StatusCode, http.StatusGatewayTimeout)
		}
	}
}

// TestErrorPaths asserts the error contract: bad queries and misuse
// yield JSON errors with 4xx statuses.
func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, 1, Config{MaxBatch: 4})
	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		// offset+limit overflowing int used to panic inside a shard
		// goroutine, which net/http cannot recover: one request killed
		// the process. Every later case doubles as the liveness check.
		{"GET", "/search?q=NP(DT)(NN)&limit=10&offset=9223372036854775797", "", http.StatusBadRequest},
		{"GET", "/stream?q=NP(DT)(NN)&limit=10&offset=9223372036854775807", "", http.StatusBadRequest},
		{"POST", "/batch", `{"queries":["NP(DT)(NN)"],"limit":10,"offset":9223372036854775800}`, http.StatusBadRequest},

		{"GET", "/search", "", http.StatusBadRequest},                                            // missing q
		{"GET", "/search?q=NP((", "", http.StatusBadRequest},                                     // parse error
		{"GET", "/search?q=NP&limit=x", "", http.StatusBadRequest},                               // bad limit
		{"GET", "/search?q=NP&offset=-1", "", http.StatusBadRequest},                             // bad offset
		{"GET", "/search?q=NP&timeout=nope", "", http.StatusBadRequest},                          // bad timeout
		{"GET", "/stream?q=NP((", "", http.StatusBadRequest},                                     // parse error, pre-stream
		{"POST", "/search?q=NP", "", http.StatusMethodNotAllowed},                                // wrong method
		{"GET", "/batch", "", http.StatusMethodNotAllowed},                                       // wrong method
		{"POST", "/batch", `{"queries":[]}`, http.StatusBadRequest},                              // empty
		{"POST", "/batch", `{"queries":["A","B","C","D","E"]}`, http.StatusBadRequest},           // over MaxBatch
		{"POST", "/batch", `{"queries":["NP(("]}`, http.StatusBadRequest},                        // parse error
		{"POST", "/batch", `not json`, http.StatusBadRequest},                                    // bad body
		{"POST", "/batch", `{"queries":["NP"],"timeout":"nope"}`, http.StatusBadRequest},         // bad timeout
		{"POST", "/batch", `{"queries":["S(//NN)"],"timeout":"1ns"}`, http.StatusGatewayTimeout}, // expired batch deadline
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
		if err != nil || e.Error == "" {
			t.Errorf("%s %s: no JSON error body (%v)", c.method, c.path, err)
		}
	}
}

// TestHealthzAndStats asserts the observability endpoints report the
// index and the counters move.
func TestHealthzAndStats(t *testing.T) {
	ts, ix := newTestServer(t, 3, Config{})
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Trees != ix.NumTrees() || h.Shards != 3 {
		t.Fatalf("healthz = %+v", h)
	}
	// Same query twice: the second should hit the plan cache.
	for i := 0; i < 2; i++ {
		var sr SearchResponse
		getJSON(t, ts.URL+"/search?q=NP(DT)(NN)", &sr)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Index.Trees != ix.NumTrees() || st.Index.Shards != 3 || st.Index.MSS != ix.MSS() {
		t.Fatalf("stats index = %+v", st.Index)
	}
	if st.Serving.Queries < 2 || st.Serving.Requests < 3 {
		t.Fatalf("stats serving = %+v", st.Serving)
	}
	if st.Serving.PostingFetches == 0 {
		t.Fatal("stats report zero posting fetches after searches")
	}
	if st.Serving.PlanCacheHits == 0 {
		t.Fatal("repeated query did not hit the plan cache")
	}
}

// urlQueryEscape escapes a query for use as a URL parameter value.
func urlQueryEscape(q string) string { return url.QueryEscape(q) }

// postBody POSTs raw bytes and decodes the JSON response, failing on
// an unexpected status.
func postBody(t *testing.T, url, contentType, body string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
}

// TestAppendEndToEnd is the live-update acceptance path over HTTP:
// POST /append makes new trees searchable on the very next request,
// with no reopen and no restart, and /stats reports the grown segment
// set.
func TestAppendEndToEnd(t *testing.T) {
	ts, ix := newTestServer(t, 2, Config{})
	const q = "NNX(zzyzx)"
	var cr SearchResponse
	getJSON(t, ts.URL+"/count?q="+urlQueryEscape(q), &cr)
	if cr.Count != 0 {
		t.Fatalf("unique query matched %d before append", cr.Count)
	}
	before := ix.NumTrees()

	var ar AppendResponse
	postBody(t, ts.URL+"/append", "text/plain",
		"(S (NP (NNX zzyzx)) (VP (VBZ is)))\n(S (NP (DT a)) (VP (VBZ runs)))\n",
		http.StatusOK, &ar)
	if ar.Trees != 2 || ar.Segments != 2 || ar.Generation != 2 {
		t.Fatalf("append response = %+v, want 2 trees, 2 segments, generation 2", ar)
	}

	getJSON(t, ts.URL+"/count?q="+urlQueryEscape(q), &cr)
	if cr.Count != 1 {
		t.Fatalf("unique query matched %d after append, want 1", cr.Count)
	}
	var sr SearchResponse
	getJSON(t, ts.URL+"/search?q="+urlQueryEscape(q), &sr)
	if len(sr.Matches) != 1 || sr.Matches[0].TID != uint32(before) {
		t.Fatalf("appended tree matched as %+v, want tid %d", sr.Matches, before)
	}
	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Index.Segments != 2 || st.Index.Generation != 2 || st.Index.Trees != before+2 {
		t.Fatalf("stats after append = %+v", st.Index)
	}

	// /reload with nothing new is a clean no-op.
	var rr ReloadResponse
	postBody(t, ts.URL+"/reload", "application/json", "", http.StatusOK, &rr)
	if rr.Reloaded || rr.Segments != 2 || rr.Generation != 2 {
		t.Fatalf("no-op reload = %+v", rr)
	}
}

// TestReloadPicksUpExternalAppend drives the offline-ingest flow: a
// second writer handle appends to the served directory (as sibuild
// -append would), and POST /reload makes the server pick it up.
func TestReloadPicksUpExternalAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	trees := si.GenerateCorpus(2012, 300)
	if _, err := si.Build(dir, trees[:200], si.DefaultBuildOptions()); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	ts := httptest.NewServer(New(ix, Config{}))
	t.Cleanup(ts.Close)

	writer, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Append(context.Background(), trees[200:]); err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	var rr ReloadResponse
	postBody(t, ts.URL+"/reload", "application/json", "", http.StatusOK, &rr)
	if !rr.Reloaded || rr.Segments != 2 {
		t.Fatalf("reload = %+v, want a pickup of 2 segments", rr)
	}
	var h HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Trees != 300 {
		t.Fatalf("healthz reports %d trees after reload, want 300", h.Trees)
	}
}

// TestAppendErrorPaths covers /append's and /reload's error contract.
func TestAppendErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, 1, Config{MaxAppendBody: 64})
	cases := []struct {
		method, path, body string
		wantStatus         int
	}{
		{"GET", "/append", "", http.StatusMethodNotAllowed},
		{"GET", "/reload", "", http.StatusMethodNotAllowed},
		{"POST", "/append", "", http.StatusBadRequest},                                                   // empty body
		{"POST", "/append", "(S (NP", http.StatusBadRequest},                                             // malformed tree
		{"POST", "/append", strings.Repeat("(S (NP (NNX a)) (VP (VBZ b)))\n", 4), http.StatusBadRequest}, // over MaxAppendBody
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.wantStatus)
		}
	}

	// MaxAppendBody < 0 disables the endpoint entirely.
	disabled, _ := newTestServer(t, 1, Config{MaxAppendBody: -1})
	resp, err := http.Post(disabled.URL+"/append", "text/plain",
		bytes.NewReader([]byte("(S (NP (NNX a)) (VP (VBZ b)))")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("disabled /append: status %d, want 403", resp.StatusCode)
	}
}

// TestBatchLimitCapMatchesSearch locks the unified parameter
// validation: /batch clamps each item's limit to MaxMatches exactly
// like /search clamps its limit parameter, and both reject a negative
// offset the same way.
func TestBatchLimitCapMatchesSearch(t *testing.T) {
	ts, ix := newTestServer(t, 2, Config{MaxMatches: 3})
	const q = "NP(DT)(NN)"
	full, err := ix.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Count <= 3 {
		t.Fatalf("fixture matches only %d times; cap 3 would not bind", full.Count)
	}

	var sr SearchResponse
	getJSON(t, ts.URL+"/search?q="+urlQueryEscape(q)+"&limit=1000000", &sr)
	var br BatchResponse
	postBody(t, ts.URL+"/batch", "application/json",
		`{"queries":["`+q+`"],"limit":1000000}`, http.StatusOK, &br)
	if len(sr.Matches) != 3 {
		t.Fatalf("/search returned %d matches over a cap of 3", len(sr.Matches))
	}
	if len(br.Results[0].Matches) != len(sr.Matches) {
		t.Fatalf("/batch returned %d matches, /search %d — cap not unified",
			len(br.Results[0].Matches), len(sr.Matches))
	}

	// An unset batch limit gets the cap, like /search without limit=.
	postBody(t, ts.URL+"/batch", "application/json",
		`{"queries":["`+q+`"]}`, http.StatusOK, &br)
	if len(br.Results[0].Matches) != 3 {
		t.Fatalf("/batch without limit returned %d matches, want the cap 3", len(br.Results[0].Matches))
	}

	for _, target := range []string{
		"/search?q=" + urlQueryEscape(q) + "&offset=-2",
	} {
		resp, err := http.Get(ts.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", target, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json",
		bytes.NewReader([]byte(`{"queries":["`+q+`"],"offset":-2}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/batch with negative offset: status %d, want 400", resp.StatusCode)
	}
}

// TestStatsWireKeys pins the keys of the stats object that /search
// (with explain=1) and /stream's summary line carry, and of an explain
// piece row: the engine's stats are marshalled as they are, so a field
// added to or renamed in them would otherwise reach the wire unseen.
// Truncated is not among them; it is reported on the result itself.
func TestStatsWireKeys(t *testing.T) {
	ts, _ := newTestServer(t, 2, Config{})
	const q = "NP(DT)(NN)"
	keys := func(v any) []string {
		m, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("not a JSON object: %v", v)
		}
		return slices.Sorted(maps.Keys(m))
	}
	stats := []string{"estimated_rows", "join_rows", "plan_cache_hit", "posting_fetches", "shards_consulted", "strategy"}
	explain := append([]string{"pieces"}, stats...)
	slices.Sort(explain)

	var search map[string]any
	getJSON(t, ts.URL+"/search?explain=1&q="+urlQueryEscape(q), &search)
	if got := keys(search["stats"]); !slices.Equal(got, explain) {
		t.Errorf("/search?explain=1 stats keys %v, want %v", got, explain)
	}
	pieces, _ := search["stats"].(map[string]any)["pieces"].([]any)
	if len(pieces) == 0 {
		t.Fatal("/search?explain=1: no piece rows")
	}
	for _, p := range pieces {
		if got := keys(p); !slices.Equal(got, []string{"actual", "est", "key"}) {
			t.Errorf("/search?explain=1 piece keys %v, want [actual est key]", got)
		}
	}

	resp, err := http.Get(ts.URL + "/stream?q=" + urlQueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last []byte
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		last = slices.Clone(sc.Bytes())
	}
	var summary map[string]any
	if err := json.Unmarshal(last, &summary); err != nil || summary["done"] != true {
		t.Fatalf("/stream: last line %q is not the summary (err %v)", last, err)
	}
	if got := keys(summary["stats"]); !slices.Equal(got, stats) {
		t.Errorf("/stream summary stats keys %v, want %v", got, stats)
	}
}
