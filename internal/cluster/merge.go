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
// fan out over the groups and merge with the exact leafSet semantics —
// limited searches consult groups lazily in tid order with the same
// lookahead as the in-process engine, unlimited ones fan out to every
// group, batches never early-terminate — so the router is
// observationally a sharded index whose shards happen to be networked.

// routerLookahead mirrors the engine's lazyLookahead: a limited search
// keeps this many groups in flight, overlapping the next group's
// evaluation with the current one's merge.
const routerLookahead = 2

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

// nodeQuery builds the query string of one node subrequest: the query
// text, the pushed-down window, and whatever of the routed deadline
// remains, so a node never evaluates past the point the router would
// discard its answer.
func nodeQuery(ctx context.Context, src string, limit, offset int) url.Values {
	q := url.Values{}
	q.Set("q", src)
	q.Set("limit", strconv.Itoa(limit))
	if offset > 0 {
		q.Set("offset", strconv.Itoa(offset))
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			q.Set("timeout", rem.String())
		}
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

// handleSearch serves GET /search through the cluster: a limited
// search mirrors the engine's lazy in-order group consultation, an
// unlimited one fans out to every group.
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
	var qr server.QueryResult
	if target := searchTarget(p.Limit, p.Offset); target > 0 {
		qr, err = r.searchLazy(ctx, p, target)
	} else {
		qr, err = r.searchFanout(ctx, p)
	}
	if err != nil {
		r.fail(w, failStatus(ctx, err), err.Error())
		return
	}
	r.writeJSON(w, http.StatusOK, server.SearchResponse{
		QueryResult: qr,
		TookNS:      time.Since(start).Nanoseconds(),
	})
}

// searchTarget is the engine's own early-stop target: the number of
// leading global matches that must be merged before evaluation may
// stop — offset+limit (saturating), or 0 for "all".
func searchTarget(limit, offset int) int {
	return core.SearchOpts{Limit: limit, Offset: offset}.Target()
}

// searchLazy consults groups in tid order, routerLookahead at a time,
// and stops launching once the window's target is reached — the
// networked twin of the engine's searchLazy, with the identical
// deterministic consultation set: every launched group's answer folds
// into the found count, a group that fails after the window filled was
// speculative and is skipped, and a group the window still needs
// failing fails the search.
func (r *Router) searchLazy(ctx context.Context, p server.Params, target int) (server.QueryResult, error) {
	bases := r.bases()
	nq := nodeQuery(ctx, p.Src, target, 0)
	outs := make([]chan groupSearch, len(r.groups))
	launched := 0
	launch := func() {
		i := launched
		launched++
		outs[i] = make(chan groupSearch, 1)
		go func() {
			var resp server.SearchResponse
			err := r.doGroup(ctx, r.groups[i], http.MethodGet, "/search", nq, nil, &resp)
			outs[i] <- groupSearch{resp: resp, err: err}
		}()
	}
	for launched < len(r.groups) && launched < routerLookahead {
		launch()
	}
	var merged []core.Match
	found := 0
	consulted := 0
	satisfied := false
	var firstErr error
	for i := 0; i < launched; i++ {
		o := <-outs[i]
		if o.err != nil {
			if firstErr == nil && !satisfied {
				firstErr = fmt.Errorf("group %d: %w", i, o.err)
			}
			continue // drain what is in flight, as the engine does
		}
		if firstErr != nil {
			continue
		}
		merged = rebaseMatches(merged, o.resp.Matches, bases[i])
		found += o.resp.Count
		consulted++
		if found >= target {
			satisfied = true
			continue
		}
		if launched < len(r.groups) {
			launch()
		}
	}
	if firstErr != nil {
		return server.QueryResult{}, firstErr
	}
	// Each group's window is its leading <= target matches, so the
	// merged slice's first target elements are exactly the global
	// result's — the same prefix the engine's window() would cut.
	upper := min(target, len(merged))
	lower := min(p.Offset, upper)
	return server.QueryResult{
		Query:     p.Src,
		Count:     found,
		Matches:   wireMatches(merged[lower:upper]),
		Truncated: found > target || consulted < len(r.groups),
	}, nil
}

// groupSearch is one group's answer to a scattered /search.
type groupSearch struct {
	resp server.SearchResponse
	err  error
}

// searchFanout is the unlimited path: every group evaluates fully and
// concurrently, counts are exact, and the merge applies only the
// offset. A node whose own match cap clipped its window reports
// truncated, which the router propagates (run nodes with -limit -1 to
// make unlimited routed searches exact).
func (r *Router) searchFanout(ctx context.Context, p server.Params) (server.QueryResult, error) {
	bases := r.bases()
	nq := nodeQuery(ctx, p.Src, -1, 0)
	outs := make([]groupSearch, len(r.groups))
	done := make(chan int, len(r.groups))
	for i := range r.groups {
		go func(i int) {
			outs[i].err = r.doGroup(ctx, r.groups[i], http.MethodGet, "/search", nq, nil, &outs[i].resp)
			done <- i
		}(i)
	}
	for range r.groups {
		<-done
	}
	var merged []core.Match
	found := 0
	truncated := false
	for i := range outs {
		if outs[i].err != nil {
			return server.QueryResult{}, fmt.Errorf("group %d: %w", i, outs[i].err)
		}
		merged = rebaseMatches(merged, outs[i].resp.Matches, bases[i])
		found += outs[i].resp.Count
		truncated = truncated || outs[i].resp.Truncated
	}
	lower := min(p.Offset, len(merged))
	return server.QueryResult{
		Query:     p.Src,
		Count:     found,
		Matches:   wireMatches(merged[lower:]),
		Truncated: truncated,
	}, nil
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
	nq := url.Values{}
	nq.Set("q", p.Src)
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			nq.Set("timeout", rem.String())
		}
	}
	outs := make([]groupSearch, len(r.groups))
	done := make(chan int, len(r.groups))
	for i := range r.groups {
		go func(i int) {
			outs[i].err = r.doGroup(ctx, r.groups[i], http.MethodGet, "/count", nq, nil, &outs[i].resp)
			done <- i
		}(i)
	}
	for range r.groups {
		<-done
	}
	total := 0
	for i := range outs {
		if outs[i].err != nil {
			r.fail(w, failStatus(ctx, outs[i].err), fmt.Sprintf("group %d: %v", i, outs[i].err))
			return
		}
		total += outs[i].resp.Count
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
	target := searchTarget(limit, offset)
	nodeLimit := -1
	if target > 0 {
		nodeLimit = target
	}
	nodeReq := server.BatchRequest{
		Queries:   breq.Queries,
		Limit:     nodeLimit,
		CountOnly: breq.CountOnly,
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			nodeReq.Timeout = rem.String()
		}
	}
	body, err := json.Marshal(nodeReq)
	if err != nil {
		r.fail(w, http.StatusInternalServerError, err.Error())
		return
	}
	bases := r.bases()
	type groupBatch struct {
		resp server.BatchResponse
		err  error
	}
	outs := make([]groupBatch, len(r.groups))
	done := make(chan int, len(r.groups))
	for i := range r.groups {
		go func(i int) {
			outs[i].err = r.doGroup(ctx, r.groups[i], http.MethodPost, "/batch", nil, body, &outs[i].resp)
			done <- i
		}(i)
	}
	for range r.groups {
		<-done
	}
	for i := range outs {
		if outs[i].err != nil {
			r.fail(w, failStatus(ctx, outs[i].err), fmt.Sprintf("group %d: %v", i, outs[i].err))
			return
		}
		if len(outs[i].resp.Results) != len(breq.Queries) {
			r.fail(w, http.StatusBadGateway,
				fmt.Sprintf("group %d: %d results for %d queries", i, len(outs[i].resp.Results), len(breq.Queries)))
			return
		}
	}
	resp := server.BatchResponse{Results: make([]server.QueryResult, len(breq.Queries))}
	for qi := range breq.Queries {
		var merged []core.Match
		found := 0
		nodeTrunc := false
		for i := range outs {
			qr := outs[i].resp.Results[qi]
			found += qr.Count
			nodeTrunc = nodeTrunc || qr.Truncated
			if !breq.CountOnly {
				merged = rebaseMatches(merged, qr.Matches, bases[i])
			}
		}
		out := server.QueryResult{Query: breq.Queries[qi], Count: found}
		if !breq.CountOnly {
			upper := len(merged)
			if target > 0 {
				upper = min(target, upper)
			}
			lower := min(offset, upper)
			out.Matches = wireMatches(merged[lower:upper])
			out.Truncated = (target > 0 && found > target) || nodeTrunc
		}
		resp.Results[qi] = out
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
