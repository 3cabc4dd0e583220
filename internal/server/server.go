// Package server implements the sisrv HTTP API: JSON endpoints over a
// long-lived si.Index, so the open/parse/decompose cost of querying is
// amortized across requests instead of being paid per process (the
// serving direction the ROADMAP calls out; cmd/sisrv is the binary).
//
// Endpoints:
//
//	GET  /search?q=Q&limit=N&offset=M&timeout=D   one query's match window
//	                           (&explain=1 adds the planner's strategy and
//	                           per-piece estimated vs. actual cardinality)
//	GET  /stream?q=Q&limit=N&offset=M&timeout=D   same, streamed as NDJSON
//	GET  /count?q=Q&timeout=D                     exact match count only
//	POST /batch                {"queries": [...]} evaluated as one batch:
//	                           shared cover keys are fetched once per shard
//	POST /append               bracketed trees (one per line) indexed into
//	                           a fresh segment and served immediately
//	POST /delete               {"tids": [...]} tombstoned; the trees stop
//	                           matching on the very next query
//	POST /compact              merge surviving trees into one segment and
//	                           reclaim tombstoned space
//	POST /reload               pick up segments and tombstones published
//	                           by another process
//	GET  /healthz              liveness + corpus summary
//	GET  /readyz               readiness: 503 while draining for shutdown
//	GET  /stats                index info and cumulative serving counters
//	GET  /manifest             on-disk manifest, for follower replication
//	GET  /segment/{name}/{file} published segment payloads, range-served
//
// /append, /delete, /compact and /reload are the live-update surface:
// each publishes a new segment set (or tombstone set) atomically and
// swaps it in without interrupting running queries (each query is
// pinned to the segment set it started on), so the very next /search
// sees the change with zero downtime. docs/SEGMENTS.md walks the whole
// lifecycle against a running server.
//
// Every query evaluates under the request's context, bounded by the
// server's default timeout (Config.Timeout) unless the request asks
// for a shorter one with timeout= (a Go duration, e.g. 500ms); a
// client disconnect cancels evaluation mid-join. limit/offset push
// down into the search path: a sharded index stops consulting
// shards — and fetching their posting lists — once the window is
// full, and inside each shard the streaming join stops decoding and
// joining postings at the same point. /stream evaluates incrementally
// end to end: the first NDJSON line is written while the join is
// still running.
//
// All responses are JSON (NDJSON for /stream); errors are
// {"error": "..."} with a 4xx/5xx status. The handler is safe for
// concurrent use — si.Index is — and holds no per-request state.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/si"
)

// Defaults for the zero values of Config.
const (
	DefaultMaxMatches    = 1000
	DefaultMaxBatch      = 256
	DefaultMaxBody       = 1 << 20
	DefaultMaxAppendBody = 32 << 20
)

// Config bounds what one request may cost the server.
type Config struct {
	// MaxMatches caps the matches returned per query; the limit pushes
	// down into the engine, which stops merging shard results beyond
	// it. 0 means DefaultMaxMatches; negative means no cap.
	MaxMatches int
	// MaxBatch caps the queries accepted by one /batch request.
	// 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxBody caps the /batch request body in bytes. 0 means
	// DefaultMaxBody.
	MaxBody int64
	// MaxAppendBody caps the /append request body in bytes. 0 means
	// DefaultMaxAppendBody; negative disables the whole mutation
	// surface — /append, /delete and /compact answer 403.
	MaxAppendBody int64
	// Timeout is the default evaluation deadline per request; a
	// request's timeout= parameter may shorten it but never extend it.
	// 0 means no server-imposed deadline.
	Timeout time.Duration
	// MaxInflight bounds the number of concurrently evaluating query
	// requests (/search, /count, /stream, /batch). Excess requests are
	// rejected immediately with 429 and a Retry-After header — nothing
	// queues, so a saturated node degrades with fast rejections instead
	// of collapsing under unbounded goroutines. 0 means unlimited.
	MaxInflight int
	// Dir is the index directory the server is serving. When set, the
	// replication surface is enabled: GET /manifest serves the on-disk
	// manifest and GET /segment/{name}/{file} range-serves published
	// segment files, so a follower node can pull the segment set and
	// /reload it. Empty disables both endpoints (404).
	Dir string
}

// normalize fills in defaults for zero fields.
func (c *Config) normalize() {
	if c.MaxMatches == 0 {
		c.MaxMatches = DefaultMaxMatches
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxBody == 0 {
		c.MaxBody = DefaultMaxBody
	}
	if c.MaxAppendBody == 0 {
		c.MaxAppendBody = DefaultMaxAppendBody
	}
}

// Server is the sisrv HTTP handler over one open index.
type Server struct {
	ix      *si.Index
	cfg     Config
	mux     *http.ServeMux
	started time.Time

	// inflight is the admission-control semaphore over query
	// evaluations; nil means unlimited. Acquisition never blocks: a
	// full semaphore answers 429 instead of queueing the request.
	inflight chan struct{}
	// draining flips when graceful shutdown begins: /readyz turns 503
	// so routers and load balancers stop sending new work while
	// in-flight requests finish.
	draining atomic.Bool

	requests atomic.Uint64 // HTTP requests accepted
	queries  atomic.Uint64 // queries evaluated (batch elements count individually)
	errors   atomic.Uint64 // requests answered with an error status
	rejected atomic.Uint64 // requests shed by admission control (429)
}

// New returns a handler serving ix. The index must stay open for the
// server's lifetime; the caller retains ownership and closes it.
func New(ix *si.Index, cfg Config) *Server {
	cfg.normalize()
	s := &Server{ix: ix, cfg: cfg, mux: http.NewServeMux(), started: time.Now()}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	s.mux.HandleFunc("/search", s.handleSearch)
	s.mux.HandleFunc("/stream", s.handleStream)
	s.mux.HandleFunc("/count", s.handleCount)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/append", s.handleAppend)
	s.mux.HandleFunc("/delete", s.handleDelete)
	s.mux.HandleFunc("/compact", s.handleCompact)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/manifest", s.handleManifest)
	s.mux.HandleFunc("/segment/", s.handleSegment)
	return s
}

// ServeHTTP dispatches to the endpoint handlers. Every request gets a
// request ID — the client's X-Request-Id when it sent a sane one, a
// fresh one otherwise — echoed in the response headers, carried in the
// request context for error logs and stream summaries, and forwarded
// by the router on per-node subrequests so one query is traceable
// across the cluster.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	rid := RequestID(r)
	w.Header().Set(RequestIDHeader, rid)
	r = r.WithContext(WithRequestID(r.Context(), rid))
	s.mux.ServeHTTP(w, r)
}

// SetDraining marks the server as draining (true) or serving (false).
// While draining, /readyz answers 503 so routers and load balancers
// take the node out of rotation; already-accepted requests are
// unaffected. Call it when graceful shutdown begins, before
// http.Server.Shutdown waits for in-flight requests.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// admit reserves an admission-control slot for one query evaluation,
// answering 429 with a Retry-After header when the server is already
// at MaxInflight. The returned release must be called exactly once
// when the evaluation (including response writing, for /stream)
// finishes; ok=false means the rejection response was already written.
// Admission never queues: the goroutine count of a saturated server
// stays bounded by MaxInflight plus the connections the HTTP server
// itself accepts.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.inflight == nil {
		return func() {}, true
	}
	select {
	case s.inflight <- struct{}{}:
		return func() { <-s.inflight }, true
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.fail(w, r, http.StatusTooManyRequests,
			fmt.Sprintf("server at capacity (%d evaluations in flight); retry shortly", s.cfg.MaxInflight))
		return nil, false
	}
}

// MatchJSON is one query match on the wire.
type MatchJSON struct {
	// TID is the tree identifier.
	TID uint32 `json:"tid"`
	// Root is the pre-order rank of the node the query root matched.
	Root uint32 `json:"root"`
}

// StatsJSON reports how one query executed (the wire form of
// si.SearchStats).
type StatsJSON struct {
	// PostingFetches is the number of physical posting-list reads the
	// query issued.
	PostingFetches uint64 `json:"posting_fetches"`
	// PlanCacheHit reports the query skipped parse/decomposition.
	PlanCacheHit bool `json:"plan_cache_hit"`
	// ShardsConsulted is how many index partitions were evaluated;
	// under a limit this can be less than the shard count.
	ShardsConsulted int `json:"shards_consulted"`
	// JoinRows is the join work done: posting entries decoded plus
	// intermediate join rows produced. Limits push into the join, so a
	// truncated query reports fewer rows than its unlimited run.
	JoinRows uint64 `json:"join_rows"`
	// Strategy is the execution mode the query ran under: "filter" on
	// a filter-coded index, "stream" otherwise.
	Strategy string `json:"strategy,omitempty"`
	// EstimatedRows is the planner's estimated match cardinality;
	// present only with explain=1 on a costed plan.
	EstimatedRows uint64 `json:"estimated_rows,omitempty"`
	// Pieces lists each cover piece's estimated vs. actually decoded
	// posting entries; present only with explain=1.
	Pieces []PieceJSON `json:"pieces,omitempty"`
}

// PieceJSON is one cover piece's explain row (the wire form of
// si.PieceStat).
type PieceJSON struct {
	// Key is the piece's index key (the flattened subtree).
	Key string `json:"key"`
	// Est is the planner's estimated posting-entry count for the key.
	Est uint64 `json:"est"`
	// Actual is the number of posting entries execution decoded; under
	// cost-ordered early abort or a limit it can be far below Est.
	Actual uint64 `json:"actual"`
}

// statsJSON converts engine stats to the wire form.
func statsJSON(st si.SearchStats) *StatsJSON {
	out := &StatsJSON{
		PostingFetches:  st.PostingFetches,
		PlanCacheHit:    st.PlanCacheHit,
		ShardsConsulted: st.ShardsConsulted,
		JoinRows:        st.JoinRows,
		Strategy:        st.Strategy,
		EstimatedRows:   st.EstimatedRows,
	}
	for _, p := range st.Pieces {
		out.Pieces = append(out.Pieces, PieceJSON{Key: p.Key, Est: p.Est, Actual: p.Actual})
	}
	return out
}

// QueryResult is the per-query payload of /search and /batch.
type QueryResult struct {
	// Query echoes the query text as submitted.
	Query string `json:"query"`
	// Count is the number of matches found before evaluation stopped:
	// the exact total unless Truncated is set, in which case it is a
	// lower bound (early termination is the point of limits — use
	// /count for an always-exact total).
	Count int `json:"count"`
	// Matches lists the requested window of matches in (tid, root)
	// order; omitted by /count and count-only batches.
	Matches []MatchJSON `json:"matches,omitempty"`
	// Truncated reports that a limit stopped evaluation or trimmed the
	// match list, so Count may undercount.
	Truncated bool `json:"truncated,omitempty"`
}

// SearchResponse is the /search and /count response body.
type SearchResponse struct {
	QueryResult
	// Stats reports how the query executed (posting fetches, plan
	// cache, shards consulted); omitted by /count.
	Stats *StatsJSON `json:"stats,omitempty"`
	// TookNS is the server-side evaluation time in nanoseconds.
	TookNS int64 `json:"took_ns"`
}

// StreamSummary is the trailing NDJSON line of /stream, after the
// match lines.
type StreamSummary struct {
	// Done marks the summary line, distinguishing it from match lines.
	Done bool `json:"done"`
	// Count is the number of matches evaluation found before it
	// stopped. Because /stream evaluates incrementally, this is a lower
	// bound on the query's total whenever Truncated is set (a limit was
	// reached, shards went unconsulted, or the evaluation failed
	// mid-stream); use /count for an always-exact total.
	Count int `json:"count"`
	// Truncated: as in QueryResult.
	Truncated bool `json:"truncated,omitempty"`
	// Error reports an evaluation failure that occurred after match
	// lines were already on the wire (the status line was long gone by
	// then); the preceding lines are a valid prefix of the result.
	Error string `json:"error,omitempty"`
	// Stats: as in SearchResponse.
	Stats *StatsJSON `json:"stats,omitempty"`
	// TookNS is the elapsed stream time in nanoseconds — evaluation
	// *interleaved with writing to the client*, since /stream evaluates
	// as it writes. A slow reader inflates it; it is not comparable to
	// /search's evaluation-only took_ns.
	TookNS int64 `json:"took_ns"`
	// RequestID echoes the request's X-Request-Id in the NDJSON body
	// itself, so a consumer that only kept the stream (or a router
	// re-streaming node lines) can still correlate it with server logs.
	RequestID string `json:"request_id,omitempty"`
}

// BatchRequest is the /batch request body.
type BatchRequest struct {
	// Queries are evaluated as one batch; results keep their order.
	Queries []string `json:"queries"`
	// Limit caps matches per query like /search's limit parameter.
	Limit int `json:"limit,omitempty"`
	// Offset skips leading matches per query like /search's offset.
	Offset int `json:"offset,omitempty"`
	// CountOnly omits match lists from all results; counts are exact.
	CountOnly bool `json:"count_only,omitempty"`
	// Timeout bounds the whole batch's evaluation like /search's
	// timeout parameter: a Go duration string (e.g. "500ms"), clamped
	// to the server default when one is set.
	Timeout string `json:"timeout,omitempty"`
}

// BatchResponse is the /batch response body.
type BatchResponse struct {
	// Results holds one entry per submitted query, in order.
	Results []QueryResult `json:"results"`
	// TookNS is the server-side evaluation time for the whole batch.
	TookNS int64 `json:"took_ns"`
}

// HealthResponse is the /healthz response body.
type HealthResponse struct {
	// Status is "ok" whenever the server can answer at all.
	Status string `json:"status"`
	// Trees is the number of indexed trees.
	Trees int `json:"trees"`
	// Shards is the index partition count (1 when unsharded).
	Shards int `json:"shards"`
}

// StatsResponse is the /stats response body.
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
	// UptimeSeconds since New.
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

// Params are the parsed per-request query parameters shared by
// /search, /stream and /count — on a node and, through the same parser,
// on the cluster router, so moving a client from sisrv to sirouter
// changes the URL and nothing else.
type Params struct {
	Src     string        // the q parameter, non-empty
	Limit   int           // clamped to the match cap; 0 = unlimited
	Offset  int           // >= 0
	Timeout time.Duration // requested evaluation deadline; 0 = none
	Explain bool          // per-piece planner diagnostics requested
}

// BoundParams is the one validation and clamping path for the
// limit/offset/timeout triple every query endpoint accepts: /search,
// /stream and /count (via ParseParams) and /batch (from its JSON body),
// on nodes and on the router, all pass through here, so the match cap
// and the parameter sanity rules cannot drift between the GET and POST
// surfaces or between the two servers. The returned limit is clamped to
// maxMatches (Config.MaxMatches semantics: a requested 0 means the cap
// itself, a negative cap means unlimited), a negative offset is
// rejected, offset+limit+1 must be representable — evaluation stops
// one peek match past the window's end — and a timeout must be a
// positive Go duration.
func BoundParams(maxMatches, limit, offset int, timeout string) (int, int, time.Duration, error) {
	if offset < 0 {
		return 0, 0, 0, fmt.Errorf("bad offset %d (must be >= 0)", offset)
	}
	switch {
	case maxMatches < 0:
		limit = max(limit, 0) // no cap: the client's limit, or unlimited
	case limit <= 0 || limit > maxMatches:
		limit = maxMatches
	}
	if offset >= math.MaxInt-limit {
		return 0, 0, 0, fmt.Errorf("bad offset %d (offset+limit overflows)", offset)
	}
	var d time.Duration
	if timeout != "" {
		td, err := time.ParseDuration(timeout)
		if err != nil || td <= 0 {
			return 0, 0, 0, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 500ms)", timeout)
		}
		d = td
	}
	return limit, offset, d, nil
}

// ParseParams validates a GET query endpoint's q, limit, offset,
// timeout and explain parameters against the match cap maxMatches.
func ParseParams(r *http.Request, maxMatches int) (Params, error) {
	var p Params
	v := r.URL.Query()
	p.Src = v.Get("q")
	if p.Src == "" {
		return p, fmt.Errorf("missing q parameter")
	}
	if raw := v.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return p, fmt.Errorf("bad limit %q", raw)
		}
		p.Limit = n
	}
	if raw := v.Get("offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return p, fmt.Errorf("bad offset %q", raw)
		}
		p.Offset = n
	}
	if raw := v.Get("explain"); raw != "" {
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return p, fmt.Errorf("bad explain %q (want 1 or 0)", raw)
		}
		p.Explain = b
	}
	var err error
	p.Limit, p.Offset, p.Timeout, err = BoundParams(maxMatches, p.Limit, p.Offset, v.Get("timeout"))
	return p, err
}

// requestCtx derives the evaluation context: the request's own context
// (cancelled on client disconnect) bounded by the effective timeout —
// the requested one, clamped to the server default when one is set.
func (s *Server) requestCtx(r *http.Request, requested time.Duration) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if requested > 0 && (d <= 0 || requested < d) {
		d = requested
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// searchOptions turns wire params into engine options.
func searchOptions(limit, offset int, countOnly bool) []si.SearchOption {
	var opts []si.SearchOption
	if limit > 0 {
		opts = append(opts, si.WithLimit(limit))
	}
	if offset > 0 {
		opts = append(opts, si.WithOffset(offset))
	}
	if countOnly {
		opts = append(opts, si.WithCountOnly())
	}
	return opts
}

// explainOptions appends WithExplain when the request asked for it.
func explainOptions(opts []si.SearchOption, explain bool) []si.SearchOption {
	if explain {
		opts = append(opts, si.WithExplain())
	}
	return opts
}

// handleSearch serves GET /search?q=Q&limit=N&offset=M&timeout=D.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	res, p, took, ok := s.evaluate(w, r, false)
	if !ok {
		return
	}
	resp := SearchResponse{
		QueryResult: result(p.Src, res),
		Stats:       statsJSON(res.Stats),
		TookNS:      took.Nanoseconds(),
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleCount serves GET /count?q=Q&timeout=D through the count-only
// path: the count is exact and no match slice is built server-side.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	res, p, took, ok := s.evaluate(w, r, true)
	if !ok {
		return
	}
	resp := SearchResponse{
		QueryResult: QueryResult{Query: p.Src, Count: res.Count},
		TookNS:      took.Nanoseconds(),
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// evaluate runs the shared GET-query path for /search and /count.
func (s *Server) evaluate(w http.ResponseWriter, r *http.Request, countOnly bool) (*si.SearchResult, Params, time.Duration, bool) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, "use GET")
		return nil, Params{}, 0, false
	}
	p, err := ParseParams(r, s.cfg.MaxMatches)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err.Error())
		return nil, p, 0, false
	}
	release, ok := s.admit(w, r)
	if !ok {
		return nil, p, 0, false
	}
	defer release()
	ctx, cancel := s.requestCtx(r, p.Timeout)
	defer cancel()
	limit, offset := p.Limit, p.Offset
	if countOnly {
		limit, offset = 0, 0
	}
	start := time.Now()
	res, err := s.ix.Search(ctx, p.Src, explainOptions(searchOptions(limit, offset, countOnly), p.Explain)...)
	if err != nil {
		s.fail(w, r, errStatus(err), err.Error())
		return nil, p, 0, false
	}
	s.queries.Add(1)
	return res, p, time.Since(start), true
}

// handleStream serves GET /stream: the same query surface as /search,
// answered as NDJSON — one match object per line, then a summary line
// with the count, truncation flag and stats. Evaluation is genuinely
// incremental (si.Index.SearchStream): each line is produced by
// advancing the streaming join just far enough for the next match and
// flushed immediately, so the first byte reaches the client while
// most of the evaluation — later trees of the current shard, later
// shards entirely — has not happened yet, and a client that
// disconnects stops that work. The summary's Count is therefore a
// lower bound whenever Truncated is set. Failures keep /search's
// status semantics as long as nothing is on the wire: the first match
// is pulled *before* the 200 commits, so planning errors, an expired
// deadline or an I/O failure on the leading shard still answer
// 4xx/5xx. A failure after lines are flowing cannot change the status
// anymore; it is reported in the summary line's error field, with the
// preceding lines a valid prefix of the result.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	p, err := ParseParams(r, s.cfg.MaxMatches)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err.Error())
		return
	}
	// The admission slot is held for the whole handler: /stream
	// evaluates interleaved with writing, so a slow reader is still an
	// in-flight evaluation.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, p.Timeout)
	defer cancel()
	start := time.Now()
	res, err := s.ix.SearchStream(ctx, p.Src, searchOptions(p.Limit, p.Offset, false)...)
	if err != nil {
		s.fail(w, r, errStatus(err), err.Error())
		return
	}
	next, stop := iter.Pull2(res.All())
	defer stop()
	first, firstErr, ok := next()
	if ok && firstErr != nil {
		// Evaluation died before producing anything: a status line is
		// still possible, so answer like /search would.
		s.fail(w, r, errStatus(firstErr), firstErr.Error())
		return
	}
	s.queries.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	// Every line flushes: prompt delivery of each match as it is found
	// is this endpoint's contract, and coalescing would hold produced
	// matches hostage to however long the join takes to find the next
	// one. One chunked write per line is the accepted price — the
	// default MaxMatches cap bounds it, and bulk drains belong on
	// /search, which materializes concurrently and writes once.
	var streamErr error
	for m := first; ok; m, streamErr, ok = next() {
		if streamErr != nil {
			break
		}
		if err := enc.Encode(MatchJSON{TID: m.TID, Root: m.Root}); err != nil {
			return // client went away; stopping the iterator stops evaluation
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	stop() // finalize res.Count and res.Stats before the summary
	summary := StreamSummary{
		Done:      true,
		Count:     res.Count,
		Truncated: res.Stats.Truncated,
		Stats:     statsJSON(res.Stats),
		TookNS:    time.Since(start).Nanoseconds(),
		RequestID: RequestIDFrom(r.Context()),
	}
	if streamErr != nil {
		summary.Error = streamErr.Error()
		summary.Truncated = true
		s.errors.Add(1)
	}
	_ = enc.Encode(summary)
	if flusher != nil {
		flusher.Flush()
	}
}

// handleBatch serves POST /batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, r, http.StatusBadRequest, "bad batch body: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		s.fail(w, r, http.StatusBadRequest, "empty queries")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		s.fail(w, r, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	// Per-item bounds go through the same validation and MaxMatches
	// clamp as /search's query parameters.
	limit, offset, timeout, err := BoundParams(s.cfg.MaxMatches, req.Limit, req.Offset, req.Timeout)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if req.CountOnly {
		limit, offset = 0, 0
	}
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	ctx, cancel := s.requestCtx(r, timeout)
	defer cancel()
	start := time.Now()
	results, err := s.ix.SearchBatch(ctx, req.Queries, searchOptions(limit, offset, req.CountOnly)...)
	if err != nil {
		s.fail(w, r, errStatus(err), err.Error())
		return
	}
	s.queries.Add(uint64(len(req.Queries)))
	resp := BatchResponse{Results: make([]QueryResult, len(results))}
	for i, res := range results {
		resp.Results[i] = result(req.Queries[i], res)
	}
	resp.TookNS = time.Since(start).Nanoseconds()
	s.writeJSON(w, http.StatusOK, resp)
}

// AppendResponse is the /append response body.
type AppendResponse struct {
	// Trees is the number of trees indexed by this append.
	Trees int `json:"trees"`
	// Segments is the live segment count after the append.
	Segments int `json:"segments"`
	// Generation is the index manifest's publish counter after the
	// append.
	Generation int `json:"generation"`
	// TookNS is the server-side build-and-publish time in nanoseconds.
	TookNS int64 `json:"took_ns"`
}

// handleAppend serves POST /append: the body is a bracketed corpus
// (one tree per line, as sibuild reads), indexed into a fresh segment
// and published atomically — the next /search sees the new trees.
// Running queries are unaffected; they finish on the segment set they
// pinned.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cfg.MaxAppendBody < 0 {
		s.fail(w, r, http.StatusForbidden, "append is disabled on this server")
		return
	}
	trees, err := si.ReadTrees(http.MaxBytesReader(w, r.Body, s.cfg.MaxAppendBody))
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "bad append body: "+err.Error())
		return
	}
	if len(trees) == 0 {
		s.fail(w, r, http.StatusBadRequest, "empty append: need one bracketed tree per line")
		return
	}
	start := time.Now()
	if _, err := s.ix.Append(r.Context(), trees); err != nil {
		s.fail(w, r, errStatus(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, AppendResponse{
		Trees:      len(trees),
		Segments:   s.ix.Segments(),
		Generation: s.ix.Generation(),
		TookNS:     time.Since(start).Nanoseconds(),
	})
}

// DeleteRequest is the /delete request body.
type DeleteRequest struct {
	// TIDs are the tree identifiers to tombstone. Any out-of-range tid
	// rejects the whole request; already-deleted tids are accepted and
	// counted as no-ops.
	TIDs []int `json:"tids"`
}

// DeleteResponse is the /delete response body.
type DeleteResponse struct {
	// Deleted is the number of tids newly tombstoned by this request
	// (already-deleted tids are not re-counted).
	Deleted int `json:"deleted"`
	// LiveTrees is the searchable tree count after the delete.
	LiveTrees int `json:"live_trees"`
	// TombstonedTrees is the total tombstoned tree count after the
	// delete — the space a /compact would reclaim.
	TombstonedTrees int `json:"tombstoned_trees"`
	// Generation is the manifest publish counter after the delete; it
	// does not advance when every tid was already deleted.
	Generation int `json:"generation"`
	// TookNS is the server-side publish time in nanoseconds.
	TookNS int64 `json:"took_ns"`
}

// handleDelete serves POST /delete: the listed trees are tombstoned in
// the manifest and the serving set swaps atomically, so they stop
// matching on the very next query while searches already running
// finish on the snapshot they pinned. Segments are immutable, so the
// trees keep occupying disk until /compact reclaims them. Out-of-range
// tids fail the whole request with 400 before anything is published.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cfg.MaxAppendBody < 0 {
		s.fail(w, r, http.StatusForbidden, "index mutation is disabled on this server")
		return
	}
	var req DeleteRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, r, http.StatusBadRequest, "bad delete body: "+err.Error())
		return
	}
	if len(req.TIDs) == 0 {
		s.fail(w, r, http.StatusBadRequest, "empty delete: need tids")
		return
	}
	n := s.ix.NumTrees()
	for _, tid := range req.TIDs {
		if tid < 0 || tid >= n {
			s.fail(w, r, http.StatusBadRequest,
				fmt.Sprintf("tid %d out of range [0, %d)", tid, n))
			return
		}
	}
	start := time.Now()
	deleted, err := s.ix.Delete(r.Context(), req.TIDs...)
	if err != nil {
		s.fail(w, r, errStatus(err), err.Error())
		return
	}
	st := s.ix.Stats()
	s.writeJSON(w, http.StatusOK, DeleteResponse{
		Deleted:         deleted,
		LiveTrees:       st.LiveTrees,
		TombstonedTrees: st.TombstonedTrees,
		Generation:      s.ix.Generation(),
		TookNS:          time.Since(start).Nanoseconds(),
	})
}

// CompactResponse is the /compact response body.
type CompactResponse struct {
	// Compacted reports whether a compaction ran; false means the index
	// was already a single segment with no tombstones.
	Compacted bool `json:"compacted"`
	// Segments is the live segment count afterwards (1 when Compacted).
	Segments int `json:"segments"`
	// Generation is the manifest publish counter afterwards.
	Generation int `json:"generation"`
	// LiveTrees is the searchable tree count afterwards; after a
	// compaction it equals the stored tree count, renumbered 0..n-1.
	LiveTrees int `json:"live_trees"`
	// TookNS is the server-side merge-and-publish time in nanoseconds.
	TookNS int64 `json:"took_ns"`
}

// handleCompact serves POST /compact: the surviving trees of all
// segments are merged into one fresh segment published atomically,
// clearing every tombstone; replaced segment directories are removed
// once their last in-flight query drains. Surviving trees are
// renumbered to contiguous tids, so clients holding tids across a
// compaction must re-resolve them. A no-op (single segment, no
// tombstones) answers 200 with compacted=false.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.cfg.MaxAppendBody < 0 {
		s.fail(w, r, http.StatusForbidden, "index mutation is disabled on this server")
		return
	}
	start := time.Now()
	compacted, err := s.ix.Compact(r.Context())
	if err != nil {
		s.fail(w, r, errStatus(err), err.Error())
		return
	}
	st := s.ix.Stats()
	s.writeJSON(w, http.StatusOK, CompactResponse{
		Compacted:  compacted,
		Segments:   s.ix.Segments(),
		Generation: s.ix.Generation(),
		LiveTrees:  st.LiveTrees,
		TookNS:     time.Since(start).Nanoseconds(),
	})
}

// ReloadResponse is the /reload response body.
type ReloadResponse struct {
	// Reloaded reports whether the on-disk manifest differed and a new
	// segment set was swapped in.
	Reloaded bool `json:"reloaded"`
	// Segments is the live segment count after the reload.
	Segments int `json:"segments"`
	// Generation is the manifest publish counter after the reload.
	Generation int `json:"generation"`
}

// handleReload serves POST /reload: re-read the index manifest and
// pick up segments published by another process (e.g. sibuild -append
// against the served directory) with zero downtime.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, r, http.StatusMethodNotAllowed, "use POST")
		return
	}
	reloaded, err := s.ix.Reload()
	if err != nil {
		s.fail(w, r, errStatus(err), err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, ReloadResponse{
		Reloaded:   reloaded,
		Segments:   s.ix.Segments(),
		Generation: s.ix.Generation(),
	})
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, HealthResponse{
		Status: "ok",
		Trees:  s.ix.NumTrees(),
		Shards: s.ix.Shards(),
	})
}

// ReadyResponse is the /readyz response body.
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

// handleReadyz serves GET /readyz: readiness, as distinct from
// /healthz's liveness. A live process stops being ready the moment
// graceful shutdown begins (SetDraining), so a router health loop that
// polls /readyz drains the node cleanly: no new queries are routed,
// while accepted ones — and the drain window — finish undisturbed. By
// construction the handler only exists once the index is open, so
// before that the port answers connection refused, which is equally
// "not ready" to a poller.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{
		Ready:      !s.draining.Load(),
		Trees:      s.ix.NumTrees(),
		Segments:   s.ix.Segments(),
		Generation: s.ix.Generation(),
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, resp)
}

// handleManifest serves GET /manifest: the on-disk index manifest
// (meta.json), byte-for-byte. A follower polls it for the generation
// counter and segment list, pulls any segments it is missing via
// /segment, writes the same manifest bytes locally and calls its own
// Reload — the atomic-publish contract means whatever manifest this
// endpoint returns names only fully published segments.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.cfg.Dir == "" {
		s.fail(w, r, http.StatusNotFound, "replication is disabled (server not configured with an index directory)")
		return
	}
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, core.MetaFileName))
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, "read manifest: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleSegment serves GET /segment/{name}/{file}: one payload file of
// a published segment, range-served (http.ServeFile) so an interrupted
// follower pull can resume. {name} must be a seg-NNNNNN directory and
// {file} one of the fixed payload paths (meta.json, subtree.idx,
// trees.dat, trees.idx, optionally under one shard-NNNN/ level);
// the allowlist is structural, so traversal and absolute paths are
// unrepresentable rather than filtered. Segments are immutable once
// published, which is what makes byte-range resumption sound.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, r, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if s.cfg.Dir == "" {
		s.fail(w, r, http.StatusNotFound, "replication is disabled (server not configured with an index directory)")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/segment/")
	name, file, found := strings.Cut(rest, "/")
	if !found || !core.IsSegmentName(name) || !core.IsSegmentFile(file) {
		s.fail(w, r, http.StatusNotFound, "no such segment file (want /segment/seg-NNNNNN/{meta.json|subtree.idx|trees.dat|trees.idx}, optionally under shard-NNNN/)")
		return
	}
	http.ServeFile(w, r, filepath.Join(s.cfg.Dir, name, filepath.FromSlash(file)))
}

// handleStats serves GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	info := s.ix.Info()
	st := s.ix.Stats()
	s.writeJSON(w, http.StatusOK, StatsResponse{
		Index: IndexStats{
			Trees:           s.ix.NumTrees(),
			LiveTrees:       st.LiveTrees,
			TombstonedTrees: st.TombstonedTrees,
			Shards:          s.ix.Shards(),
			Segments:        s.ix.Segments(),
			Generation:      s.ix.Generation(),
			MSS:             s.ix.MSS(),
			Coding:          s.ix.Coding().String(),
			Keys:            info.Keys,
			Postings:        info.Postings,
			IndexBytes:      info.IndexBytes,
			DataBytes:       info.DataBytes,
		},
		Serving: ServingStats{
			UptimeSeconds: int64(time.Since(s.started).Seconds()),
			Requests:      s.requests.Load(),
			Queries:       s.queries.Load(),
			Errors:        s.errors.Load(),
			Rejected:      s.rejected.Load(),
			MaxInflight:   s.cfg.MaxInflight,
			Stats:         st,
		},
	})
}

// result shapes one engine result for the wire.
func result(src string, res *si.SearchResult) QueryResult {
	qr := QueryResult{Query: src, Count: res.Count, Truncated: res.Stats.Truncated}
	if res.Matches == nil {
		return qr
	}
	qr.Matches = make([]MatchJSON, len(res.Matches))
	for i, m := range res.Matches {
		qr.Matches[i] = MatchJSON{TID: m.TID, Root: m.Root}
	}
	return qr
}

// errStatus maps an evaluation error to an HTTP status: malformed
// query text is the client's fault (400), an expired evaluation
// deadline is a timeout (504), anything else — I/O failures, corrupt
// postings — is the server's (500), so monitoring and load balancers
// see a failing backend rather than bad clients.
func errStatus(err error) int {
	var pe *query.ParseError
	if errors.As(err, &pe) {
		return http.StatusBadRequest
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// fail answers with a JSON error body. Server-side failures (5xx) are
// logged with the request ID so a client-reported failure can be
// matched to its server log line.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, msg string) {
	s.errors.Add(1)
	if status >= 500 {
		log.Printf("sisrv: rid=%s %s %s: %d %s",
			RequestIDFrom(r.Context()), r.Method, r.URL.Path, status, msg)
	}
	s.writeJSON(w, status, map[string]string{"error": msg})
}

// writeJSON encodes v as the response with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is gone; nothing left to signal
}
