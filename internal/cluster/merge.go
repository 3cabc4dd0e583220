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
// consultation policy — and fold the per-group windows with core.Rebase
// and core.Window, so the router is observationally a sharded index
// whose shards happen to be networked. A limited search is a bounded
// gather (groups consulted lazily in tid order, the engine's
// lookahead); unlimited searches, counts and batches are unbounded.

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
	m.ms = core.Rebase(m.ms, qr.Matches, m.bases[i])
	m.found += qr.Count
	m.clipped = qr.Truncated && (m.target == 0 || len(qr.Matches) < m.target)
	return m.clipped || (m.target > 0 && m.found >= m.target)
}

// result cuts the client's window out of the merged matches with
// core.Window. Each group's window is its leading <= target matches, so
// the merged slice's first target elements are exactly the global
// result's. unconsulted reports groups the gather never folded.
func (m *groupMerge) result(unconsulted bool) server.QueryResult {
	out, _, _ := core.Window(m.ms, m.opts)
	return server.QueryResult{
		Count:     m.found,
		Matches:   out,
		Truncated: m.clipped || unconsulted || (m.target > 0 && m.found > m.target),
	}
}

// Search answers one query through the cluster. A count is every
// group's exact count, summed; a search is one gather over the groups,
// bounded exactly when the window is, each group asked for the
// window's leading target matches.
func (r *Router) Search(ctx context.Context, p server.Params) (server.QueryResult, *server.StatsJSON, error) {
	sizes, bases := r.layout()
	if p.CountOnly {
		total := 0
		eval := r.groupGet(ctx, "/count", nodeQuery(ctx, p.Src, -1, 0), sizes)
		_, err := core.Gather(len(r.groups), false, eval, func(_ int, resp server.SearchResponse) bool {
			total += resp.Count
			return false
		})
		return server.QueryResult{Count: total}, nil, err
	}
	m := newGroupMerge(bases, p.Limit, p.Offset)
	eval := r.groupGet(ctx, "/search", nodeQuery(ctx, p.Src, m.nodeLimit(), 0), sizes)
	consulted, err := core.Gather(len(r.groups), m.target > 0, eval, func(i int, resp server.SearchResponse) bool {
		return m.add(i, resp.QueryResult)
	})
	if err != nil {
		return server.QueryResult{}, nil, err
	}
	return m.result(consulted < len(r.groups)), nil, nil
}

// Batch sends the whole batch to every group (batches share fetches,
// they do not early-terminate — the engine's own contract), and merges
// each query like an unlimited or windowed search.
func (r *Router) Batch(ctx context.Context, queries []string, p server.Params) ([]server.QueryResult, error) {
	sizes, bases := r.layout()
	body, err := json.Marshal(server.BatchRequest{
		Queries:   queries,
		Limit:     newGroupMerge(bases, p.Limit, p.Offset).nodeLimit(),
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
		m := newGroupMerge(bases, p.Limit, p.Offset)
		for i := range outs {
			m.add(i, outs[i].Results[qi])
		}
		results[qi] = m.result(false)
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
