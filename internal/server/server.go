// Package server is the one HTTP surface of the serving tier: the
// query endpoints and everything around them — request IDs, admission
// control, draining, timeouts, error→status mapping, 5xx logging, the
// /stream NDJSON writer and the /batch body limits — written once over
// a small Backend interface. There are two backends:
//
//   - an open si.Index (New): the sisrv node, which also registers the
//     lifecycle and replication endpoints;
//   - cluster.Router (Over): sirouter, a tid-partitioned set of remote
//     sisrv nodes.
//
// A client therefore cannot tell a router from a node: the two differ
// only in the bodies of /healthz, /readyz and /stats.
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
//	GET  /healthz              liveness + corpus summary
//	GET  /readyz               readiness: 503 while draining for shutdown
//	GET  /stats                index info and cumulative serving counters
//
// and on a node only:
//
//	POST /append               bracketed trees (one per line) indexed into
//	                           a fresh segment and served immediately
//	POST /delete               {"tids": [...]} tombstoned; the trees stop
//	                           matching on the very next query
//	POST /compact              merge surviving trees into one segment and
//	                           reclaim tombstoned space
//	POST /reload               pick up segments and tombstones published
//	                           by another process
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
// concurrent use as long as its backend is.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/si"
)

// Defaults for the zero values of Config.
const (
	DefaultMaxMatches    = 1000
	DefaultMaxBatch      = 256
	DefaultMaxAppendBody = 32 << 20
)

// maxBody caps the JSON request bodies of /batch and /delete in bytes.
const maxBody = 1 << 20

// Config bounds what one request may cost the server.
type Config struct {
	// MaxMatches caps the matches returned per query; the limit pushes
	// down into the engine, which stops merging shard results beyond
	// it. 0 means DefaultMaxMatches; negative means no cap.
	MaxMatches int
	// MaxBatch caps the queries accepted by one /batch request.
	// 0 means DefaultMaxBatch.
	MaxBatch int
	// MaxAppendBody caps the /append request body in bytes. 0 means
	// DefaultMaxAppendBody; negative disables the whole mutation
	// surface — /append, /delete and /compact answer 403. Node only.
	MaxAppendBody int64
	// Timeout is the default evaluation deadline per request; a
	// request's timeout= parameter may shorten it but never extend it.
	// 0 means no server-imposed deadline.
	Timeout time.Duration
	// MaxInflight bounds the number of concurrently evaluating query
	// requests (/search, /count, /stream, /batch). Excess requests are
	// rejected immediately with 429 and a Retry-After header — nothing
	// queues, so a saturated server degrades with fast rejections
	// instead of collapsing under unbounded goroutines. 0 means
	// unlimited.
	MaxInflight int
	// Dir is the index directory the server is serving. When set, the
	// replication surface is enabled: GET /manifest serves the on-disk
	// manifest and GET /segment/{name}/{file} range-serves published
	// segment files, so a follower node can pull the segment set and
	// /reload it. Empty disables both endpoints (404). Node only.
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
	if c.MaxAppendBody == 0 {
		c.MaxAppendBody = DefaultMaxAppendBody
	}
}

// Backend is what the HTTP surface serves. Params arrive validated and
// clamped to Config's limits, and ctx carries the request ID and the
// request's deadline. A backend error may implement HTTPStatus() int
// to choose its answer's status (see errStatus).
type Backend interface {
	// Search answers p's match window, or only its exact count when
	// p.CountOnly is set. The surface fills in the result's Query;
	// the stats are optional.
	Search(ctx context.Context, p Params) (QueryResult, *StatsJSON, error)
	// Batch answers every query under p's window, in order, one result
	// per query.
	Batch(ctx context.Context, queries []string, p Params) ([]QueryResult, error)
	// Stream evaluates p's window incrementally, handing each match to
	// emit in (tid, root) order and stopping as soon as emit returns
	// false (the client went away). It returns the summary's Count,
	// Truncated and Stats; an error after matches were emitted leaves
	// them a valid prefix of the result.
	Stream(ctx context.Context, p Params, emit func(MatchJSON) bool) (StreamSummary, error)
	// Health returns the /healthz body (always 200) and the /readyz
	// body, which answers 503 unless ready. draining is set once
	// graceful shutdown has begun.
	Health(draining bool) (live, ready any, ok bool)
	// Stats returns the /stats body, given the surface's own counters.
	Stats(ctx context.Context, serving ServingStats) any
}

// Server is the HTTP surface over one backend.
type Server struct {
	b       Backend
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

// New returns the sisrv handler serving ix: the query surface over the
// index plus the lifecycle and replication endpoints. The index must
// stay open for the server's lifetime; the caller retains ownership
// and closes it.
func New(ix *si.Index, cfg Config) *Server {
	s := Over(local{ix}, cfg)
	registerLifecycle(s, ix)
	registerReplication(s)
	return s
}

// Over returns the query, health and stats surface over b.
func Over(b Backend, cfg Config) *Server {
	cfg.normalize()
	s := &Server{b: b, cfg: cfg, mux: http.NewServeMux(), started: time.Now()}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	s.route("/search", http.MethodGet, s.handleSearch)
	s.route("/count", http.MethodGet, s.handleCount)
	s.route("/stream", http.MethodGet, s.handleStream)
	s.route("/batch", http.MethodPost, s.handleBatch)
	s.route("/healthz", "", s.handleHealthz)
	s.route("/readyz", "", s.handleReadyz)
	s.route("/stats", "", s.handleStats)
	return s
}

// route registers h at path, answering 405 to any method but method
// ("" accepts every method).
func (s *Server) route(path, method string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if method != "" && r.Method != method {
			s.fail(w, r, http.StatusMethodNotAllowed, "use "+method)
			return
		}
		h(w, r)
	})
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
// take the server out of rotation; already-accepted requests are
// unaffected. ListenAndServe calls it when graceful shutdown begins.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// ListenAndServe serves s on addr until ctx is done, then drains:
// /readyz turns 503 first, so routers and load balancers stop sending
// work, and in-flight requests (active streams included) get up to
// drain to finish. The connection write deadline is derived from
// Config.Timeout with headroom to serialize the response, so it never
// fires before the evaluation deadline has had its chance to produce
// a clean 504; no Timeout means no write deadline either, or a long
// evaluation would have its connection severed mid-response.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drain time.Duration) error {
	var writeTimeout time.Duration
	if s.cfg.Timeout > 0 {
		writeTimeout = max(s.cfg.Timeout+30*time.Second, 60*time.Second)
	}
	srv := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining for up to %s", drain)
	s.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// deadline derives a request's evaluation context: its own context
// (cancelled on client disconnect) bounded by the effective timeout —
// the requested one, clamped to Config.Timeout when that is set.
func (s *Server) deadline(r *http.Request, requested time.Duration) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if requested > 0 && (d <= 0 || requested < d) {
		d = requested
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

// begin admits one query evaluation and derives its context. At
// MaxInflight it answers 429 with a Retry-After header and returns
// ok=false; otherwise done must be called exactly once when the
// evaluation (including response writing, for /stream) finishes.
// Admission never queues: the goroutine count of a saturated server
// stays bounded by MaxInflight plus the connections the HTTP server
// itself accepts.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, requested time.Duration) (ctx context.Context, done func(), ok bool) {
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
		default:
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			s.fail(w, r, http.StatusTooManyRequests,
				fmt.Sprintf("server at capacity (%d evaluations in flight); retry shortly", s.cfg.MaxInflight))
			return nil, nil, false
		}
	}
	ctx, cancel := s.deadline(r, requested)
	return ctx, func() {
		cancel()
		if s.inflight != nil {
			<-s.inflight
		}
	}, true
}

// errStatus maps an evaluation error to an HTTP status: malformed
// query text is the client's fault (400), an expired evaluation
// deadline is a timeout (504), an error that knows its status (the
// router's node failures: the upstream's own status for a refused
// request, 502 for failed replicas) answers with it, and anything
// else — I/O failures, corrupt postings — is the server's (500), so
// monitoring and load balancers see a failing backend rather than bad
// clients.
func errStatus(ctx context.Context, err error) int {
	var pe *query.ParseError
	var se interface{ HTTPStatus() int }
	switch {
	case errors.As(err, &pe):
		return http.StatusBadRequest
	case ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.As(err, &se):
		return se.HTTPStatus()
	}
	return http.StatusInternalServerError
}

// fail answers with a JSON error body. Server-side failures (5xx) are
// logged with the request ID so a client-reported failure can be
// matched to its server log line.
func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, msg string) {
	s.errors.Add(1)
	if status >= 500 {
		log.Printf("rid=%s %s %s: %d %s", RequestIDFrom(r.Context()), r.Method, r.URL.Path, status, msg)
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
