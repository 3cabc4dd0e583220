package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// This file is the unary scatter-gather: searches, counts and batches
// consult the groups through core.Gather — the leafSet engine's own
// consultation policy — and fold the per-group windows with core.Merge,
// the engine's own window rule, so the router is observationally a
// sharded index whose shards happen to be networked. A limited search
// is a bounded gather (groups consulted lazily in tid order, the
// engine's lookahead); unlimited searches and counts are unbounded. A
// batch asks every group at once and folds each query's answers in the
// order that query's own gather would fold them.

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

// groupErr names the failing group in a subrequest error; nil stays nil.
func groupErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("group %d: %w", i, err)
}

// checkMatch is the router's guard on one node match: it must lie in
// the group's tid range [0, trees) and, when prev is set, follow it in
// strictly increasing (tid, root) order — the order the merge and the
// window arithmetic rely on.
func checkMatch(m server.MatchJSON, trees int64, prev *server.MatchJSON) error {
	if int64(m.TID) >= trees {
		return fmt.Errorf("match tid %d outside the group's %d trees", m.TID, trees)
	}
	if prev != nil && (m.TID < prev.TID || m.TID == prev.TID && m.Root <= prev.Root) {
		return fmt.Errorf("match %+v does not follow %+v", m, *prev)
	}
	return nil
}

// checkMatches applies checkMatch to one node's match list.
func checkMatches(ms []server.MatchJSON, trees int64) error {
	for i := range ms {
		var prev *server.MatchJSON
		if i > 0 {
			prev = &ms[i-1]
		}
		if err := checkMatch(ms[i], trees, prev); err != nil {
			return err
		}
	}
	return nil
}

// groupGet is the Gather evaluation of a unary GET endpoint: group i's
// checked answer to path?q.
func (r *Router) groupGet(ctx context.Context, path string, q url.Values, sizes []int64) func(int) (server.SearchResponse, error) {
	return func(i int) (server.SearchResponse, error) {
		resp, err := groupDo(ctx, r, r.groups[i], http.MethodGet, path, q, nil, func(resp *server.SearchResponse) error {
			return checkMatches(resp.Matches, sizes[i])
		})
		return resp, groupErr(i, err)
	}
}

// Search answers one query through the cluster: one gather over the
// groups, folded by core.Merge. A count asks every group at once for
// its exact count; a search asks each group for the window's leading
// matches, consulting groups lazily exactly when the window is bounded.
func (r *Router) Search(ctx context.Context, p server.Params) (server.QueryResult, *server.StatsJSON, error) {
	sizes, bases := r.layout()
	m := core.NewMerge(core.SearchOpts{Limit: p.Limit, Offset: p.Offset, CountOnly: p.CountOnly}, bases)
	path := "/search"
	if p.CountOnly {
		path = "/count"
	}
	eval := r.groupGet(ctx, path, nodeQuery(ctx, p.Src, m.Ask(), 0), sizes)
	if _, err := core.Gather(len(r.groups), m.Ask() > 0, eval, func(i int, resp server.SearchResponse) bool {
		return m.Add(i, resp.Matches, resp.Count, resp.Truncated)
	}); err != nil {
		return server.QueryResult{}, nil, err
	}
	var qr server.QueryResult
	qr.Matches, qr.Count, qr.Truncated = m.Result()
	return qr, nil, nil
}

// Batch sends the whole batch to every group at once, each query asked
// for its window's leading matches, and folds each query's group
// answers with core.Merge in the order Search's gather folds them: a
// truncated count depends on which groups were folded.
func (r *Router) Batch(ctx context.Context, queries []string, p server.Params) ([]server.QueryResult, error) {
	sizes, bases := r.layout()
	opts := core.SearchOpts{Limit: p.Limit, Offset: p.Offset, CountOnly: p.CountOnly}
	body, err := json.Marshal(server.BatchRequest{
		Queries:   queries,
		Limit:     core.NewMerge(opts, nil).Ask(), // every query's window is the same
		CountOnly: p.CountOnly,
		Timeout:   remaining(ctx),
	})
	if err != nil {
		return nil, err
	}
	outs := make([]server.BatchResponse, len(r.groups))
	if _, err := core.Gather(len(r.groups), false, func(i int) (server.BatchResponse, error) {
		resp, err := groupDo(ctx, r, r.groups[i], http.MethodPost, "/batch", nil, body, func(resp *server.BatchResponse) error {
			if len(resp.Results) != len(queries) {
				return fmt.Errorf("%d results for %d queries", len(resp.Results), len(queries))
			}
			for _, qr := range resp.Results {
				if err := checkMatches(qr.Matches, sizes[i]); err != nil {
					return err
				}
			}
			return nil
		})
		return resp, groupErr(i, err)
	}, func(i int, resp server.BatchResponse) bool {
		outs[i] = resp
		return false
	}); err != nil {
		return nil, err
	}
	results := make([]server.QueryResult, len(queries))
	for qi := range queries {
		m := core.NewMerge(opts, bases)
		answer := func(i int) (server.QueryResult, error) { return outs[i].Results[qi], nil }
		// The answers are in memory already, so this gather cannot fail.
		_, _ = core.Gather(len(r.groups), m.Ask() > 0, answer, func(i int, qr server.QueryResult) bool {
			return m.Add(i, qr.Matches, qr.Count, qr.Truncated)
		})
		results[qi].Matches, results[qi].Count, results[qi].Truncated = m.Result()
	}
	return results, nil
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
	// UptimeSeconds since the router's server was created.
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

// Stats polls every node's /stats concurrently and sums the per-group
// index stats into a cluster view.
func (r *Router) Stats(ctx context.Context, serving server.ServingStats) any {
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
	byURL := make(map[string]*NodeStats, len(r.nodes))
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
	return RouterStatsResponse{
		Cluster: cluster,
		Router: RouterServing{
			UptimeSeconds: serving.UptimeSeconds,
			Requests:      serving.Requests,
			Errors:        serving.Errors,
			Hedges:        r.hedges.Load(),
			Failovers:     r.failovers.Load(),
		},
		Nodes: nodes,
	}
}

// RouterHealth is the router's /healthz and /readyz response body.
type RouterHealth struct {
	// Status is "ok" whenever the router can answer at all.
	Status string `json:"status"`
	// Ready reports every group has at least one ready replica and the
	// router is not draining for shutdown.
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

// Health snapshots the replica set's readiness. /healthz is always
// 200 — the router process is up; /readyz is 200 only when every
// tid-range group has at least one ready replica, i.e. the router can
// answer whole-corpus queries, and it is not draining.
func (r *Router) Health(draining bool) (live, ready any, ok bool) {
	h := RouterHealth{Status: "ok", Groups: len(r.groups), Nodes: len(r.nodes)}
	for _, g := range r.groups {
		groupReady := false
		for _, n := range g {
			if n.ready.Load() {
				groupReady = true
				h.ReadyNodes++
			}
		}
		if groupReady {
			h.ReadyGroups++
		}
	}
	h.Ready = h.ReadyGroups == h.Groups && !draining
	return h, h, h.Ready
}
