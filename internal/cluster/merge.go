package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// This file is the unary scatter-gather: /search, /count and /batch
// consult the groups through core.Gather — the leafSet engine's own
// consultation policy — and fold the per-group windows with core.Rebase
// and core.Window, so the router is observationally a sharded index
// whose shards happen to be networked. A limited /search is a bounded
// gather (groups consulted lazily in tid order, the engine's
// lookahead); unlimited searches, counts and batches are unbounded.

// requestCtx bounds a routed request like a node bounds its own: the
// client's context, capped by the requested timeout clamped to the
// router default.
func (r *Router) requestCtx(req *http.Request, requested time.Duration) (context.Context, context.CancelFunc) {
	d := r.cfg.Timeout
	if requested > 0 && (d <= 0 || requested < d) {
		d = requested
	}
	return contextWithTimeout(req.Context(), d)
}

// remaining renders what is left of ctx's deadline as a node timeout
// parameter, so a node never evaluates past the point the router would
// discard its answer; "" when there is no deadline.
func remaining(ctx context.Context) string {
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			return rem.String()
		}
	}
	return ""
}

// nodeQuery builds the query string of one node subrequest: the query
// text, the pushed-down window, and whatever of the routed deadline
// remains.
func nodeQuery(ctx context.Context, src string, limit, offset int) url.Values {
	q := url.Values{}
	q.Set("q", src)
	q.Set("limit", strconv.Itoa(limit))
	if offset > 0 {
		q.Set("offset", strconv.Itoa(offset))
	}
	if rem := remaining(ctx); rem != "" {
		q.Set("timeout", rem)
	}
	return q
}

// failStatus maps a subrequest error to the client-facing status: the
// upstream status when the request itself was refused (4xx), 504 when
// the routed deadline expired, 502 for replica failures.
func failStatus(ctx context.Context, err error) int {
	if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	var ne *nodeError
	if errors.As(err, &ne) && ne.status != 0 && !ne.retryable() {
		return ne.status
	}
	return http.StatusBadGateway
}

// fail answers with a JSON error body.
func (r *Router) fail(w http.ResponseWriter, status int, msg string) {
	r.errors.Add(1)
	r.writeJSON(w, status, map[string]string{"error": msg})
}

// writeJSON encodes v as the response with the given status.
func (r *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// groupErr names the failing group in a subrequest error; nil stays nil.
func groupErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("group %d: %w", i, err)
}

// groupGet is the Gather evaluation of a unary GET endpoint: group i's
// answer to path?q.
func (r *Router) groupGet(ctx context.Context, path string, q url.Values) func(int) (server.SearchResponse, error) {
	return func(i int) (server.SearchResponse, error) {
		var resp server.SearchResponse
		err := r.doGroup(ctx, r.groups[i], http.MethodGet, path, q, nil, &resp)
		return resp, groupErr(i, err)
	}
}

// groupMerge folds one query's per-group windows in tid order: group
// i's matches rebased by its tree-count prefix sum (core.Rebase) and
// concatenated, its count summed into the found count.
type groupMerge struct {
	opts    core.SearchOpts // the client's window
	target  int             // opts.Target(); 0 = unbounded
	bases   []uint32
	ms      []core.Match
	found   int
	clipped bool
}

// newGroupMerge starts the merge of one query's window over groups
// based at bases.
func newGroupMerge(bases []uint32, limit, offset int) *groupMerge {
	opts := core.SearchOpts{Limit: limit, Offset: offset}
	return &groupMerge{opts: opts, target: opts.Target(), bases: bases}
}

// nodeLimit is the window every group is asked for: its leading target
// matches, or all of them (-1) when unbounded.
func (m *groupMerge) nodeLimit() int {
	if m.target == 0 {
		return -1
	}
	return m.target
}

// add folds group i's window and reports the merge full: the target is
// reached, or the group was clipped. A node clamps the window it is
// asked for to its own match cap, so a group that reports truncated
// with fewer matches than the router asked for (any, when unbounded)
// stopped short of matches that exist. Matches of later groups would
// then land after a gap, so a clipped group ends the merge: later
// groups are ignored and the result stays a valid prefix, flagged
// truncated — the engine's own prefix property.
func (m *groupMerge) add(i int, qr server.QueryResult) (full bool) {
	if m.clipped {
		return true
	}
	m.ms = rebaseMatches(m.ms, qr.Matches, m.bases[i])
	m.found += qr.Count
	m.clipped = qr.Truncated && (m.target == 0 || len(qr.Matches) < m.target)
	return m.clipped || (m.target > 0 && m.found >= m.target)
}

// result cuts the client's window out of the merged matches with
// core.Window. Each group's window is its leading <= target matches, so
// the merged slice's first target elements are exactly the global
// result's. unconsulted reports groups the gather never folded.
func (m *groupMerge) result(src string, unconsulted bool) server.QueryResult {
	out, _, _ := core.Window(m.ms, m.opts)
	return server.QueryResult{
		Query:     src,
		Count:     m.found,
		Matches:   wireMatches(out),
		Truncated: m.clipped || unconsulted || (m.target > 0 && m.found > m.target),
	}
}

// rebaseMatches converts one node's wire matches to engine matches
// shifted onto the global tid range via core.Rebase.
func rebaseMatches(dst []core.Match, ms []server.MatchJSON, base uint32) []core.Match {
	local := make([]core.Match, len(ms))
	for i, m := range ms {
		local[i] = core.Match{TID: m.TID, Root: m.Root}
	}
	return core.Rebase(dst, local, base)
}

// wireMatches converts merged engine matches back to the wire form.
func wireMatches(ms []core.Match) []server.MatchJSON {
	if ms == nil {
		return nil
	}
	out := make([]server.MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = server.MatchJSON{TID: m.TID, Root: m.Root}
	}
	return out
}

// handleSearch serves GET /search through the cluster: one gather over
// the groups, bounded exactly when the window is, each group asked for
// the window's leading target matches.
func (r *Router) handleSearch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	p, err := server.ParseParams(req, r.cfg.MaxMatches)
	if err != nil {
		r.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := r.requestCtx(req, p.Timeout)
	defer cancel()
	start := time.Now()
	m := newGroupMerge(r.bases(), p.Limit, p.Offset)
	eval := r.groupGet(ctx, "/search", nodeQuery(ctx, p.Src, m.nodeLimit(), 0))
	consulted, err := core.Gather(len(r.groups), m.target > 0, eval, func(i int, resp server.SearchResponse) bool {
		return m.add(i, resp.QueryResult)
	})
	if err != nil {
		r.fail(w, failStatus(ctx, err), err.Error())
		return
	}
	r.writeJSON(w, http.StatusOK, server.SearchResponse{
		QueryResult: m.result(p.Src, consulted < len(r.groups)),
		TookNS:      time.Since(start).Nanoseconds(),
	})
}

// handleCount serves GET /count: every group's exact count, summed.
func (r *Router) handleCount(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		r.fail(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	p, err := server.ParseParams(req, r.cfg.MaxMatches)
	if err != nil {
		r.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := r.requestCtx(req, p.Timeout)
	defer cancel()
	start := time.Now()
	total := 0
	eval := r.groupGet(ctx, "/count", nodeQuery(ctx, p.Src, -1, 0))
	if _, err := core.Gather(len(r.groups), false, eval, func(_ int, resp server.SearchResponse) bool {
		total += resp.Count
		return false
	}); err != nil {
		r.fail(w, failStatus(ctx, err), err.Error())
		return
	}
	r.writeJSON(w, http.StatusOK, server.SearchResponse{
		QueryResult: server.QueryResult{Query: p.Src, Count: total},
		TookNS:      time.Since(start).Nanoseconds(),
	})
}

// handleBatch serves POST /batch: the whole batch goes to every group
// (batches share fetches, they do not early-terminate — the engine's
// own contract), and each query merges like an unlimited or windowed
// search.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		r.fail(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var breq server.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, r.cfg.MaxBody))
	if err := dec.Decode(&breq); err != nil {
		r.fail(w, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(breq.Queries) == 0 {
		r.fail(w, http.StatusBadRequest, "empty queries")
		return
	}
	if len(breq.Queries) > r.cfg.MaxBatch {
		r.fail(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds limit %d", len(breq.Queries), r.cfg.MaxBatch))
		return
	}
	limit, offset, timeout, err := server.BoundParams(r.cfg.MaxMatches, breq.Limit, breq.Offset, breq.Timeout)
	if err != nil {
		r.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	if breq.CountOnly {
		limit, offset = 0, 0
	}
	ctx, cancel := r.requestCtx(req, timeout)
	defer cancel()
	start := time.Now()
	bases := r.bases()
	body, err := json.Marshal(server.BatchRequest{
		Queries:   breq.Queries,
		Limit:     newGroupMerge(bases, limit, offset).nodeLimit(),
		CountOnly: breq.CountOnly,
		Timeout:   remaining(ctx),
	})
	if err != nil {
		r.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	outs := make([]server.BatchResponse, len(r.groups))
	if _, err := core.Gather(len(r.groups), false, func(i int) (server.BatchResponse, error) {
		var resp server.BatchResponse
		err := r.doGroup(ctx, r.groups[i], http.MethodPost, "/batch", nil, body, &resp)
		if err == nil && len(resp.Results) != len(breq.Queries) {
			err = fmt.Errorf("%d results for %d queries", len(resp.Results), len(breq.Queries))
		}
		return resp, groupErr(i, err)
	}, func(i int, resp server.BatchResponse) bool {
		outs[i] = resp
		return false
	}); err != nil {
		r.fail(w, failStatus(ctx, err), err.Error())
		return
	}
	resp := server.BatchResponse{Results: make([]server.QueryResult, len(breq.Queries))}
	for qi, q := range breq.Queries {
		m := newGroupMerge(bases, limit, offset)
		for i := range outs {
			m.add(i, outs[i].Results[qi])
		}
		resp.Results[qi] = m.result(q, false)
	}
	resp.TookNS = time.Since(start).Nanoseconds()
	r.writeJSON(w, http.StatusOK, resp)
}

// NodeStats is one node's entry in the router's /stats answer.
type NodeStats struct {
	// URL is the node as configured.
	URL string `json:"url"`
	// Ready is the health loop's current view of the node.
	Ready bool `json:"ready"`
	// Error is why Stats is missing, when it is.
	Error string `json:"error,omitempty"`
	// Stats is the node's own /stats answer.
	Stats *server.StatsResponse `json:"stats,omitempty"`
}

// RouterServing are the router's own cumulative counters.
type RouterServing struct {
	// UptimeSeconds since New.
	UptimeSeconds int64 `json:"uptime_seconds"`
	// Requests is the number of client requests accepted.
	Requests uint64 `json:"requests"`
	// Errors is the number answered with an error status.
	Errors uint64 `json:"errors"`
	// Hedges is the number of duplicate subrequests launched because a
	// replica outlived its hedge deadline.
	Hedges uint64 `json:"hedges"`
	// Failovers is the number of subrequest retries on another replica
	// after a failure.
	Failovers uint64 `json:"failovers"`
}

// RouterStatsResponse is the router's /stats response body.
type RouterStatsResponse struct {
	// Cluster aggregates index stats over one reporting replica per
	// group: corpus-shaped fields (trees, keys, postings, bytes,
	// segments, shards, generation) are summed across groups; MSS and
	// Coding are taken from the first reporting group (a heterogeneous
	// cluster is a misconfiguration).
	Cluster server.IndexStats `json:"cluster"`
	// Router holds the router's own counters.
	Router RouterServing `json:"router"`
	// Nodes lists every configured node with its own stats or the
	// error that kept them out of the aggregate.
	Nodes []NodeStats `json:"nodes"`
}

// handleStats serves GET /stats: every node polled concurrently, the
// per-group index stats summed into a cluster view.
func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	ctx, cancel := r.requestCtx(req, 0)
	defer cancel()
	byURL := make(map[string]*NodeStats, len(r.nodes))
	nodes := make([]NodeStats, len(r.nodes))
	done := make(chan int, len(r.nodes))
	for i, n := range r.nodes {
		go func(i int, n *node) {
			ns := NodeStats{URL: n.url, Ready: n.ready.Load()}
			var st server.StatsResponse
			if err := r.attempt(ctx, n, http.MethodGet, "/stats", nil, nil, &st); err != nil {
				ns.Error = err.Error()
			} else {
				ns.Stats = &st
			}
			nodes[i] = ns
			done <- i
		}(i, n)
	}
	for range r.nodes {
		<-done
	}
	for i := range nodes {
		byURL[nodes[i].URL] = &nodes[i]
	}
	var cluster server.IndexStats
	for _, g := range r.groups {
		for _, n := range g {
			ns := byURL[n.url]
			if ns == nil || ns.Stats == nil {
				continue
			}
			ix := ns.Stats.Index
			if cluster.Coding == "" {
				cluster.MSS, cluster.Coding = ix.MSS, ix.Coding
			}
			cluster.Trees += ix.Trees
			cluster.LiveTrees += ix.LiveTrees
			cluster.TombstonedTrees += ix.TombstonedTrees
			cluster.Shards += ix.Shards
			cluster.Segments += ix.Segments
			cluster.Generation += ix.Generation
			cluster.Keys += ix.Keys
			cluster.Postings += ix.Postings
			cluster.IndexBytes += ix.IndexBytes
			cluster.DataBytes += ix.DataBytes
			break // one reporting replica per group
		}
	}
	r.writeJSON(w, http.StatusOK, RouterStatsResponse{
		Cluster: cluster,
		Router: RouterServing{
			UptimeSeconds: int64(time.Since(r.started).Seconds()),
			Requests:      r.requests.Load(),
			Errors:        r.errors.Load(),
			Hedges:        r.hedges.Load(),
			Failovers:     r.failovers.Load(),
		},
		Nodes: nodes,
	})
}

// RouterHealth is the router's /healthz and /readyz response body.
type RouterHealth struct {
	// Status is "ok" whenever the router can answer at all.
	Status string `json:"status"`
	// Ready reports every group has at least one ready replica.
	Ready bool `json:"ready"`
	// Groups is the configured group count.
	Groups int `json:"groups"`
	// ReadyGroups is how many groups have a ready replica right now.
	ReadyGroups int `json:"ready_groups"`
	// Nodes is the configured node count.
	Nodes int `json:"nodes"`
	// ReadyNodes is how many nodes are ready right now.
	ReadyNodes int `json:"ready_nodes"`
}

// health snapshots the replica set's readiness.
func (r *Router) health() RouterHealth {
	h := RouterHealth{Status: "ok", Groups: len(r.groups), Nodes: len(r.nodes)}
	for _, g := range r.groups {
		ready := false
		for _, n := range g {
			if n.ready.Load() {
				ready = true
				h.ReadyNodes++
			}
		}
		if ready {
			h.ReadyGroups++
		}
	}
	h.Ready = h.ReadyGroups == h.Groups
	return h
}

// handleHealthz serves GET /healthz: router liveness plus the replica
// set summary (always 200 — the router process is up).
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	r.writeJSON(w, http.StatusOK, r.health())
}

// handleReadyz serves GET /readyz: 200 only when every tid-range group
// has at least one ready replica, i.e. the router can answer whole-
// corpus queries.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	h := r.health()
	status := http.StatusOK
	if !h.Ready {
		status = http.StatusServiceUnavailable
	}
	r.writeJSON(w, status, h)
}
