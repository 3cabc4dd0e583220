package cluster

// The router's contract is exact equivalence: sirouter over N
// single-leaf nodes partitioned at core.ShardBounds boundaries must
// answer /search, /count, /batch and /stream byte-for-byte (modulo
// timings) like one sisrv whose index was built over the concatenated
// corpus with N shards. These tests assert that property across
// limit/offset combinations, then the failure behaviors on top of it:
// hedging around a slow replica, failover around a broken one, and a
// client stream that completes even when a replica dies mid-stream.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/si"
)

// parityQueries mirror the server package's parity set: frequent
// shapes, a rare one, and one with zero matches.
var parityQueries = []string{
	"NP(DT)(NN)",
	"S(NP)(VP)",
	"VP(VBZ)(NP(DT)(NN))",
	"S(//NN)",
	"NP(//DT(the))",
	"PP(IN)(NP)",
	"ZZZ(QQQ)",
}

// renumber returns shallow copies of trees with TIDs restarting at 0
// — a corpus slice handed to a fresh node build must be numbered like
// the standalone corpus it becomes (the router's bases() re-add the
// global offsets at merge time).
func renumber(trees []*si.Tree) []*si.Tree {
	out := make([]*si.Tree, len(trees))
	for i, tr := range trees {
		c := *tr
		c.TID = i
		out[i] = &c
	}
	return out
}

// buildNode builds an index over trees with the given shard count and
// returns the serving handler plus an httptest server over it. The
// handler is returned so tests can mount extra replicas (or wrappers)
// of the same content on separate listeners.
func buildNode(t *testing.T, trees []*si.Tree, shards int, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ix")
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
	h := server.New(ix, cfg)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return h, ts
}

// startRouter mounts a Router over the given topology on httptest.
func startRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

// newParityPair builds the reference single server (corpus built with
// one shard per group) and a router over per-group single-leaf nodes
// partitioned at the same boundaries, with `replicas` servers per
// group sharing each group's content.
func newParityPair(t *testing.T, corpus []*si.Tree, groups, replicas int) (ref *httptest.Server, rt *Router, rts *httptest.Server) {
	t.Helper()
	_, ref = buildNode(t, corpus, groups, server.Config{MaxMatches: -1})
	bounds := core.ShardBounds(len(corpus), groups)
	topo := make([][]string, groups)
	for g := 0; g < groups; g++ {
		h, nts := buildNode(t, renumber(corpus[bounds[g]:bounds[g+1]]), 0, server.Config{MaxMatches: -1})
		topo[g] = []string{nts.URL}
		for rep := 1; rep < replicas; rep++ {
			extra := httptest.NewServer(h)
			t.Cleanup(extra.Close)
			topo[g] = append(topo[g], extra.URL)
		}
	}
	rt, rts = startRouter(t, Config{
		Groups:      topo,
		MaxMatches:  -1,
		HealthEvery: time.Minute, // New probes synchronously; no churn during the test
		HedgeAfter:  -1,          // deterministic subrequest counts for parity
	})
	return ref, rt, rts
}

// getJSON decodes a 200 response into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// sameResult fails the test unless two query results agree on count,
// truncation and the exact match window (nil and empty are the same).
func sameResult(t *testing.T, label string, want, got server.QueryResult) {
	t.Helper()
	if got.Count != want.Count || got.Truncated != want.Truncated {
		t.Fatalf("%s: count/truncated = %d/%v, reference %d/%v",
			label, got.Count, got.Truncated, want.Count, want.Truncated)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("%s: %d matches, reference %d", label, len(got.Matches), len(want.Matches))
	}
	for i := range want.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Fatalf("%s: match %d = %+v, reference %+v", label, i, got.Matches[i], want.Matches[i])
		}
	}
}

// TestParseNodes checks the -nodes topology syntax.
func TestParseNodes(t *testing.T) {
	groups, err := ParseNodes(" http://a:1 | http://b:2/ , http://c:3 ")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"http://a:1", "http://b:2"}, {"http://c:3"}}
	if fmt.Sprint(groups) != fmt.Sprint(want) {
		t.Fatalf("parsed %v, want %v", groups, want)
	}
	for _, bad := range []string{"", ",", "|,http://c:3", "not a url", "http://a:1,::"} {
		if _, err := ParseNodes(bad); err == nil {
			t.Fatalf("ParseNodes(%q) accepted", bad)
		}
	}
}

// TestRouterSearchParity sweeps /search and /count over limit/offset
// combinations and requires byte-exact agreement with the single
// -server reference — the lazy path (positive limits), the fanout path
// (unlimited), and offsets beyond the result set included.
func TestRouterSearchParity(t *testing.T) {
	corpus := si.GenerateCorpus(2012, 600)
	ref, _, rts := newParityPair(t, corpus, 3, 1)

	limits := []int{-1, 1, 2, 5, 37, 1000}
	offsets := []int{0, 1, 5, 50, 5000}
	for _, q := range parityQueries {
		esc := url.QueryEscape(q)
		for _, lim := range limits {
			for _, off := range offsets {
				path := fmt.Sprintf("/search?q=%s&limit=%d&offset=%d", esc, lim, off)
				var want, got server.SearchResponse
				getJSON(t, ref.URL+path, &want)
				getJSON(t, rts.URL+path, &got)
				sameResult(t, path, want.QueryResult, got.QueryResult)
			}
		}
		// Default window (no limit/offset parameters at all).
		path := "/search?q=" + esc
		var want, got server.SearchResponse
		getJSON(t, ref.URL+path, &want)
		getJSON(t, rts.URL+path, &got)
		sameResult(t, path, want.QueryResult, got.QueryResult)

		path = "/count?q=" + esc
		getJSON(t, ref.URL+path, &want)
		getJSON(t, rts.URL+path, &got)
		if got.Count != want.Count || got.Truncated != want.Truncated {
			t.Fatalf("%s: count = %d/%v, reference %d/%v", path, got.Count, got.Truncated, want.Count, want.Truncated)
		}
	}
}

// TestRouterRejectsOverflowingWindow is the routed half of the
// offset+limit overflow regression: the router validates through the
// node's own parser, so a window whose end does not fit an int is a 400
// on every query endpoint — it used to wrap the early-stop target and
// reach the nodes, where it panicked inside a shard goroutine — and
// router and nodes keep answering afterwards. A huge but representable
// offset is simply an empty window, exactly as on a single server.
func TestRouterRejectsOverflowingWindow(t *testing.T) {
	ref, _, rts := newParityPair(t, si.GenerateCorpus(2012, 300), 2, 1)
	q := url.QueryEscape("NP(DT)(NN)")
	for _, base := range []string{ref.URL, rts.URL} {
		for _, ep := range []string{"/search", "/stream"} {
			for _, off := range []string{"9223372036854775797", "9223372036854775807"} {
				resp, err := http.Get(base + ep + "?q=" + q + "&limit=10&offset=" + off)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s offset=%s: status %d, want 400", ep, off, resp.StatusCode)
				}
			}
		}
		resp, err := http.Post(base+"/batch", "application/json",
			strings.NewReader(`{"queries":["NP(DT)(NN)"],"limit":10,"offset":9223372036854775800}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/batch: status %d, want 400", resp.StatusCode)
		}
	}
	path := "/search?q=" + q + "&limit=10&offset=1099511627776"
	var want, got server.SearchResponse
	getJSON(t, ref.URL+path, &want)
	getJSON(t, rts.URL+path, &got)
	sameResult(t, path, want.QueryResult, got.QueryResult)
	if len(got.Matches) != 0 || got.Count == 0 {
		t.Fatalf("%s: %d matches of %d found, want the empty window past every match", path, len(got.Matches), got.Count)
	}
}

// TestRouterBatchParity sends the whole query set as one batch through
// both servers for several windows and count-only, requiring per-query
// agreement and preserved order.
func TestRouterBatchParity(t *testing.T) {
	corpus := si.GenerateCorpus(2012, 600)
	ref, _, rts := newParityPair(t, corpus, 3, 1)

	cases := []struct {
		limit, offset int
		countOnly     bool
	}{
		{limit: 0, offset: 0}, {limit: 3, offset: 0}, {limit: 3, offset: 2},
		{limit: -1, offset: 0}, {limit: -1, offset: 4}, {limit: 5, offset: 0, countOnly: true},
	}
	for _, c := range cases {
		body, _ := json.Marshal(server.BatchRequest{
			Queries: parityQueries, Limit: c.limit, Offset: c.offset, CountOnly: c.countOnly,
		})
		label := fmt.Sprintf("/batch limit=%d offset=%d count_only=%v", c.limit, c.offset, c.countOnly)
		post := func(base string) server.BatchResponse {
			resp, err := http.Post(base+"/batch", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("%s: status %d: %s", label, resp.StatusCode, b)
			}
			var br server.BatchResponse
			if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
				t.Fatal(err)
			}
			return br
		}
		want, got := post(ref.URL), post(rts.URL)
		if len(got.Results) != len(want.Results) {
			t.Fatalf("%s: %d results, reference %d", label, len(got.Results), len(want.Results))
		}
		for i := range want.Results {
			if got.Results[i].Query != want.Results[i].Query {
				t.Fatalf("%s: result %d answers %q, reference %q", label, i, got.Results[i].Query, want.Results[i].Query)
			}
			sameResult(t, fmt.Sprintf("%s result %d", label, i), want.Results[i], got.Results[i])
		}
	}
}

// streamAll reads a full NDJSON stream: the ordered match lines and
// the trailing summary.
func streamAll(t *testing.T, url string) ([]server.MatchJSON, server.StreamSummary) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	var (
		matches []server.MatchJSON
		summary server.StreamSummary
		sawDone bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var line struct {
			Done      bool   `json:"done"`
			TID       uint32 `json:"tid"`
			Root      uint32 `json:"root"`
			Count     int    `json:"count"`
			Truncated bool   `json:"truncated"`
			Error     string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("GET %s: bad stream line %q: %v", url, sc.Text(), err)
		}
		if line.Done {
			sawDone = true
			summary = server.StreamSummary{Done: true, Count: line.Count, Truncated: line.Truncated, Error: line.Error}
			continue
		}
		matches = append(matches, server.MatchJSON{TID: line.TID, Root: line.Root})
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if !sawDone {
		t.Fatalf("GET %s: stream ended without a summary line", url)
	}
	return matches, summary
}

// sameStream requires two streams to agree on ordered match lines and
// on the summary's count/truncated.
func sameStream(t *testing.T, label string, refURL, gotURL string) {
	t.Helper()
	want, wantSum := streamAll(t, refURL)
	got, gotSum := streamAll(t, gotURL)
	if wantSum.Error != "" || gotSum.Error != "" {
		t.Fatalf("%s: stream errors %q / %q", label, wantSum.Error, gotSum.Error)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
	if gotSum.Count != wantSum.Count || gotSum.Truncated != wantSum.Truncated {
		t.Fatalf("%s: summary %d/%v, reference %d/%v",
			label, gotSum.Count, gotSum.Truncated, wantSum.Count, wantSum.Truncated)
	}
}

// TestRouterStreamParity requires the routed stream to replay the
// reference stream line for line across windows, including the
// peek-one-past-target truncation semantics.
func TestRouterStreamParity(t *testing.T) {
	corpus := si.GenerateCorpus(2012, 600)
	ref, _, rts := newParityPair(t, corpus, 3, 1)
	for _, q := range parityQueries {
		esc := url.QueryEscape(q)
		for _, params := range []string{
			"", "&limit=1", "&limit=7", "&limit=7&offset=3", "&limit=-1", "&limit=-1&offset=5", "&limit=10000",
		} {
			path := "/stream?q=" + esc + params
			sameStream(t, path, ref.URL+path, rts.URL+path)
		}
	}
}

// TestRouterStatsAndReadyz checks the merged cluster stats and the
// router's own readiness against node state.
func TestRouterStatsAndReadyz(t *testing.T) {
	corpus := si.GenerateCorpus(2012, 600)
	_, rt, rts := newParityPair(t, corpus, 2, 2)

	var st RouterStatsResponse
	getJSON(t, rts.URL+"/stats", &st)
	if st.Cluster.Trees != len(corpus) {
		t.Fatalf("cluster stats sum %d trees, want %d", st.Cluster.Trees, len(corpus))
	}
	if len(st.Nodes) != 4 {
		t.Fatalf("stats list %d nodes, want 4", len(st.Nodes))
	}
	for _, n := range st.Nodes {
		if !n.Ready || n.Error != "" {
			t.Fatalf("node %s not ready in stats: %+v", n.URL, n)
		}
	}

	var h RouterHealth
	getJSON(t, rts.URL+"/readyz", &h)
	if !h.Ready || h.ReadyGroups != 2 || h.ReadyNodes != 4 {
		t.Fatalf("readyz = %+v, want all ready", h)
	}

	// Down a whole group: the router must stop reporting ready while
	// staying alive on /healthz.
	for _, n := range rt.groups[0] {
		n.ready.Store(false)
	}
	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a dark group: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with a dark group: status %d, want 200", resp.StatusCode)
	}
}

// slowReplica delays query endpoints; everything else (health,
// readiness) answers at full speed, so the node looks healthy and only
// hedging can route around its latency.
type slowReplica struct {
	inner http.Handler
	delay time.Duration
}

// ServeHTTP delays queries, then forwards.
func (h slowReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/search", "/count", "/batch", "/stream":
		time.Sleep(h.delay)
	}
	h.inner.ServeHTTP(w, r)
}

// TestRouterHedging puts a healthy-but-slow replica first in a group
// and requires the hedge timer to win the answer from the fast one.
func TestRouterHedging(t *testing.T) {
	corpus := si.GenerateCorpus(2012, 300)
	h, fast := buildNode(t, corpus, 0, server.Config{MaxMatches: -1})
	slow := httptest.NewServer(slowReplica{inner: h, delay: 2 * time.Second})
	t.Cleanup(slow.Close)

	rt, rts := startRouter(t, Config{
		Groups:      [][]string{{slow.URL, fast.URL}},
		MaxMatches:  -1,
		HealthEvery: time.Minute,
		HedgeAfter:  10 * time.Millisecond,
		Timeout:     time.Minute,
	})

	var want server.SearchResponse
	getJSON(t, fast.URL+"/search?q=NP(DT)(NN)&limit=5", &want)
	start := time.Now()
	var got server.SearchResponse
	getJSON(t, rts.URL+"/search?q=NP(DT)(NN)&limit=5", &got)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedged search took %s; the hedge never raced the slow replica", elapsed)
	}
	sameResult(t, "hedged /search", want.QueryResult, got.QueryResult)
	if rt.hedges.Load() == 0 {
		t.Fatal("no hedge was launched")
	}
}

// brokenReplica fails every query endpoint with a 500 while reporting
// ready, the worst kind of replica: failover alone must route around
// it.
type brokenReplica struct {
	inner http.Handler
}

// ServeHTTP fails queries, forwards everything else.
func (h brokenReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/search", "/count", "/batch", "/stream":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"induced failure"}`)
	default:
		h.inner.ServeHTTP(w, r)
	}
}

// TestRouterFailover puts a ready-but-broken replica first and, with
// hedging disabled, requires error-driven failover to answer from the
// good replica.
func TestRouterFailover(t *testing.T) {
	corpus := si.GenerateCorpus(2012, 300)
	h, good := buildNode(t, corpus, 0, server.Config{MaxMatches: -1})
	broken := httptest.NewServer(brokenReplica{inner: h})
	t.Cleanup(broken.Close)

	rt, rts := startRouter(t, Config{
		Groups:      [][]string{{broken.URL, good.URL}},
		MaxMatches:  -1,
		HealthEvery: time.Minute,
		HedgeAfter:  -1,
	})

	var want, got server.SearchResponse
	getJSON(t, good.URL+"/search?q=S(NP)(VP)&limit=3", &want)
	getJSON(t, rts.URL+"/search?q=S(NP)(VP)&limit=3", &got)
	sameResult(t, "failover /search", want.QueryResult, got.QueryResult)
	if rt.failovers.Load() == 0 {
		t.Fatal("no failover happened")
	}

	var wantCount, gotCount server.SearchResponse
	getJSON(t, good.URL+"/count?q=S(NP)(VP)", &wantCount)
	getJSON(t, rts.URL+"/count?q=S(NP)(VP)", &gotCount)
	if gotCount.Count != wantCount.Count {
		t.Fatalf("failover /count = %d, want %d", gotCount.Count, wantCount.Count)
	}
}

// dyingStream replays the start of the real node stream, then kills
// the connection — a replica crashing mid-response.
type dyingStream struct {
	inner http.Handler
	cut   int
}

// ServeHTTP forwards non-stream traffic; /stream emits cut lines of
// the true response, flushes them onto the wire, and aborts.
func (h dyingStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/stream" {
		h.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	h.inner.ServeHTTP(rec, r)
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	w.Header().Set("Content-Type", "application/x-ndjson")
	for i := 0; i < h.cut && i < len(lines); i++ {
		io.WriteString(w, lines[i]+"\n")
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	panic(http.ErrAbortHandler)
}

// TestRouterStreamFailover kills the first replica three lines into a
// stream and requires the client stream to complete — identical to the
// reference — by resuming on the second replica at the exact offset.
func TestRouterStreamFailover(t *testing.T) {
	corpus := si.GenerateCorpus(2012, 600)
	bounds := core.ShardBounds(len(corpus), 2)
	_, ref := buildNode(t, corpus, 2, server.Config{MaxMatches: -1})
	h0, good0 := buildNode(t, renumber(corpus[:bounds[1]]), 0, server.Config{MaxMatches: -1})
	_, good1 := buildNode(t, renumber(corpus[bounds[1]:]), 0, server.Config{MaxMatches: -1})
	dying := httptest.NewServer(dyingStream{inner: h0, cut: 3})
	t.Cleanup(dying.Close)

	rt, rts := startRouter(t, Config{
		Groups:      [][]string{{dying.URL, good0.URL}, {good1.URL}},
		MaxMatches:  -1,
		HealthEvery: time.Minute,
		HedgeAfter:  -1,
	})

	refLines, refSum := streamAll(t, ref.URL+"/stream?q=NP(DT)(NN)&limit=-1")
	if len(refLines) < 10 {
		t.Fatalf("fixture too small: only %d reference matches", len(refLines))
	}
	if refSum.Error != "" {
		t.Fatalf("reference stream errored: %s", refSum.Error)
	}
	sameStream(t, "mid-stream kill",
		ref.URL+"/stream?q=NP(DT)(NN)&limit=-1",
		rts.URL+"/stream?q=NP(DT)(NN)&limit=-1")
	if rt.failovers.Load() == 0 {
		t.Fatal("the stream never failed over")
	}
}
