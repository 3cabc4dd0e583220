package server

import (
	"context"
	"net/http"
	"time"

	"repro/si"
)

// HealthResponse is a node's /healthz response body.
type HealthResponse struct {
	// Status is "ok" whenever the server can answer at all.
	Status string `json:"status"`
	// Trees is the number of indexed trees.
	Trees int `json:"trees"`
	// Shards is the index partition count (1 when unsharded).
	Shards int `json:"shards"`
}

// ReadyResponse is a node's /readyz response body.
type ReadyResponse struct {
	// Ready reports the node accepts new query traffic. It is false
	// while the server drains for shutdown; routers and load balancers
	// should stop routing to the node but leave in-flight requests to
	// finish.
	Ready bool `json:"ready"`
	// Trees is the number of indexed trees.
	Trees int `json:"trees"`
	// Segments is the live segment count.
	Segments int `json:"segments"`
	// Generation is the manifest publish counter — a cheap way for a
	// follower's operator to check replication lag against the leader.
	Generation int `json:"generation"`
}

// StatsResponse is a node's /stats response body.
type StatsResponse struct {
	// Index describes the corpus and build.
	Index IndexStats `json:"index"`
	// Serving holds cumulative counters since the server started.
	Serving ServingStats `json:"serving"`
}

// IndexStats summarizes the served index. Trees counts every stored
// tree including tombstoned ones (it is the tid space); LiveTrees and
// TombstonedTrees split it into searchable trees and reclaim debt, so
// live_trees + tombstoned_trees == trees until a compaction drops the
// debt to zero.
type IndexStats struct {
	Trees           int    `json:"trees"`            // stored trees (tid space, tombstoned included)
	LiveTrees       int    `json:"live_trees"`       // searchable trees (stored minus tombstoned)
	TombstonedTrees int    `json:"tombstoned_trees"` // logically deleted trees awaiting compaction
	Shards          int    `json:"shards"`           // serving partitions (leaves across all segments)
	Segments        int    `json:"segments"`         // live index segments (1 until the first append)
	Generation      int    `json:"generation"`       // manifest publish counter (0 = never appended)
	MSS             int    `json:"mss"`              // maximum indexed subtree size
	Coding          string `json:"coding"`           // posting scheme name
	Keys            int    `json:"keys"`             // unique subtrees indexed
	Postings        int    `json:"postings"`         // total posting records
	IndexBytes      int64  `json:"index_bytes"`      // B+Tree bytes on disk
	DataBytes       int64  `json:"data_bytes"`       // flattened corpus bytes
}

// ServingStats holds the server's and the index's cumulative counters.
type ServingStats struct {
	// UptimeSeconds since the server was created.
	UptimeSeconds int64 `json:"uptime_seconds"`
	// Requests is the number of HTTP requests accepted.
	Requests uint64 `json:"requests"`
	// Queries is the number of queries evaluated (each batch element
	// counts as one).
	Queries uint64 `json:"queries"`
	// Errors is the number of requests answered with an error status.
	Errors uint64 `json:"errors"`
	// Rejected is the number of requests shed by admission control
	// (429); a subset of Errors. Zero on servers without MaxInflight.
	Rejected uint64 `json:"rejected"`
	// MaxInflight echoes the configured admission-control bound
	// (0 = unlimited), so a router or operator reading /stats can tell
	// how close Rejected growth is to expected shedding vs. misconfig.
	MaxInflight int `json:"max_inflight"`
	// Stats are the index's counters: posting fetches and plan-cache
	// hits/misses.
	si.Stats
}

// handleHealthz serves /healthz: liveness, always 200.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live, _, _ := s.b.Health(s.draining.Load())
	s.writeJSON(w, http.StatusOK, live)
}

// handleReadyz serves /readyz: readiness, as distinct from /healthz's
// liveness. A live process stops being ready the moment graceful
// shutdown begins (SetDraining), so a router health loop that polls
// /readyz drains the server cleanly: no new queries are routed, while
// accepted ones — and the drain window — finish undisturbed. By
// construction the handler only exists once the backend is open, so
// before that the port answers connection refused, which is equally
// "not ready" to a poller.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	_, ready, ok := s.b.Health(s.draining.Load())
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, ready)
}

// handleStats serves /stats, bounded by the default timeout.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.deadline(r, 0)
	defer cancel()
	s.writeJSON(w, http.StatusOK, s.b.Stats(ctx, ServingStats{
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
		Requests:      s.requests.Load(),
		Queries:       s.queries.Load(),
		Errors:        s.errors.Load(),
		Rejected:      s.rejected.Load(),
		MaxInflight:   s.cfg.MaxInflight,
	}))
}

// Health reports the index's size; the node is ready unless draining.
func (l local) Health(draining bool) (live, ready any, ok bool) {
	return HealthResponse{Status: "ok", Trees: l.ix.NumTrees(), Shards: l.ix.Shards()},
		ReadyResponse{Ready: !draining, Trees: l.ix.NumTrees(), Segments: l.ix.Segments(), Generation: l.ix.Generation()},
		!draining
}

// Stats reports the index's build info and counters.
func (l local) Stats(_ context.Context, serving ServingStats) any {
	info := l.ix.Info()
	serving.Stats = l.ix.Stats()
	return StatsResponse{
		Index: IndexStats{
			Trees:           l.ix.NumTrees(),
			LiveTrees:       serving.LiveTrees,
			TombstonedTrees: serving.TombstonedTrees,
			Shards:          l.ix.Shards(),
			Segments:        l.ix.Segments(),
			Generation:      l.ix.Generation(),
			MSS:             l.ix.MSS(),
			Coding:          l.ix.Coding().String(),
			Keys:            info.Keys,
			Postings:        info.Postings,
			IndexBytes:      info.IndexBytes,
			DataBytes:       info.DataBytes,
		},
		Serving: serving,
	}
}
