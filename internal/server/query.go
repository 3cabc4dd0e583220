package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/si"
)

// MatchJSON is one query match on the wire: {"tid": T, "root": R}, the
// tree identifier and the pre-order rank of the node the query root
// matched.
type MatchJSON = si.Match

// StatsJSON reports how one query executed (the wire form of
// si.SearchStats).
type StatsJSON struct {
	// PostingFetches is the number of physical posting-list reads the
	// query issued.
	PostingFetches uint64 `json:"posting_fetches"`
	// PlanCacheHit reports the query reused a stored plan, skipping
	// decomposition and costing.
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

// Params are the parsed per-request query parameters a Backend
// evaluates: /search, /stream and /count parse them from the URL,
// /batch (without Src) from its body — on a node and on the router
// alike, so moving a client from sisrv to sirouter changes the URL and
// nothing else.
type Params struct {
	Src       string        // the q parameter, non-empty; unset for /batch
	Limit     int           // clamped to the match cap; 0 = unlimited
	Offset    int           // >= 0
	Timeout   time.Duration // requested evaluation deadline; 0 = none
	Explain   bool          // per-piece planner diagnostics requested
	CountOnly bool          // /count and count-only batches; Limit and Offset are 0
}

// BoundParams is the one validation and clamping path for the
// limit/offset/timeout triple every query endpoint accepts: /search,
// /stream and /count (via ParseParams) and /batch (from its JSON body)
// all pass through here, so the match cap and the parameter sanity
// rules cannot drift between the GET and POST surfaces. The returned
// limit is clamped to maxMatches (Config.MaxMatches semantics: a
// requested 0 means the cap itself, a negative cap means unlimited), a
// negative offset is rejected, offset+limit+1 must be representable —
// evaluation stops one peek match past the window's end — and a
// timeout must be a positive Go duration.
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

// handleSearch serves GET /search?q=Q&limit=N&offset=M&timeout=D.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) { s.search(w, r, false) }

// handleCount serves GET /count?q=Q&timeout=D through the count-only
// path: the count is exact and no match slice is built.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) { s.search(w, r, true) }

// search runs the shared GET-query path of /search and /count.
func (s *Server) search(w http.ResponseWriter, r *http.Request, countOnly bool) {
	p, err := ParseParams(r, s.cfg.MaxMatches)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if countOnly {
		p.Limit, p.Offset, p.CountOnly = 0, 0, true
	}
	ctx, done, ok := s.begin(w, r, p.Timeout)
	if !ok {
		return
	}
	defer done()
	start := time.Now()
	qr, st, err := s.b.Search(ctx, p)
	if err != nil {
		s.fail(w, r, errStatus(ctx, err), err.Error())
		return
	}
	s.queries.Add(1)
	resp := SearchResponse{QueryResult: qr, Stats: st, TookNS: time.Since(start).Nanoseconds()}
	if countOnly {
		resp = SearchResponse{QueryResult: QueryResult{Count: qr.Count}, TookNS: resp.TookNS}
	}
	resp.Query = p.Src
	s.writeJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
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
	var p Params
	var err error
	p.Limit, p.Offset, p.Timeout, err = BoundParams(s.cfg.MaxMatches, req.Limit, req.Offset, req.Timeout)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if req.CountOnly {
		p.Limit, p.Offset, p.CountOnly = 0, 0, true
	}
	ctx, done, ok := s.begin(w, r, p.Timeout)
	if !ok {
		return
	}
	defer done()
	start := time.Now()
	results, err := s.b.Batch(ctx, req.Queries, p)
	if err != nil {
		s.fail(w, r, errStatus(ctx, err), err.Error())
		return
	}
	s.queries.Add(uint64(len(req.Queries)))
	for i := range results {
		results[i].Query = req.Queries[i]
	}
	s.writeJSON(w, http.StatusOK, BatchResponse{Results: results, TookNS: time.Since(start).Nanoseconds()})
}

// handleStream serves GET /stream: the same query surface as /search,
// answered as NDJSON — one match object per line, then a summary line
// with the count, truncation flag and stats. Evaluation is
// incremental: the backend hands over each match as it is found and
// the line is flushed immediately, so the first byte reaches the
// client while most of the evaluation has not happened yet, and a
// client that disconnects stops that work. The summary's Count is
// therefore a lower bound whenever Truncated is set. Failures keep
// /search's status semantics as long as nothing is on the wire: the
// 200 commits only on the first match or on a clean end, so planning
// errors, an expired deadline or a failure before the first match
// still answer 4xx/5xx. A failure after lines are flowing cannot
// change the status anymore; it is reported in the summary line's
// error field, with the preceding lines a valid prefix of the result.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	p, err := ParseParams(r, s.cfg.MaxMatches)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err.Error())
		return
	}
	// The admission slot is held for the whole handler: /stream
	// evaluates interleaved with writing, so a slow reader is still an
	// in-flight evaluation.
	ctx, done, ok := s.begin(w, r, p.Timeout)
	if !ok {
		return
	}
	defer done()
	start := time.Now()
	out := &ndjson{w: w}
	sum, err := s.b.Stream(ctx, p, out.match)
	if err != nil && !out.committed {
		s.fail(w, r, errStatus(ctx, err), err.Error())
		return
	}
	s.queries.Add(1)
	if out.gone {
		return // client went away; nothing left to tell it
	}
	sum.Done, sum.TookNS, sum.RequestID = true, time.Since(start).Nanoseconds(), RequestIDFrom(r.Context())
	if err != nil {
		sum.Error, sum.Truncated = err.Error(), true
		s.errors.Add(1)
	}
	out.line(sum)
}

// ndjson writes /stream's body. It commits the 200 and the NDJSON
// content type on the first line — the first match, or the summary of
// a stream that ended cleanly without one — and never before, so a
// stream that fails before its first match still answers with a
// status.
type ndjson struct {
	w         http.ResponseWriter
	enc       *json.Encoder
	flusher   http.Flusher
	committed bool
	gone      bool // a write failed: the client went away
}

// match writes one match line; false means the client is gone.
func (o *ndjson) match(m MatchJSON) bool { return o.line(m) }

// line writes and flushes one line. Every line flushes: prompt
// delivery of each match as it is found is this endpoint's contract,
// and coalescing would hold produced matches hostage to however long
// the join takes to find the next one. One chunked write per line is
// the accepted price — the default MaxMatches cap bounds it, and bulk
// drains belong on /search, which materializes and writes once.
func (o *ndjson) line(v any) bool {
	if !o.committed {
		o.committed = true
		o.w.Header().Set("Content-Type", "application/x-ndjson")
		o.w.WriteHeader(http.StatusOK)
		o.enc = json.NewEncoder(o.w)
		o.enc.SetEscapeHTML(false)
		o.flusher, _ = o.w.(http.Flusher)
	}
	if err := o.enc.Encode(v); err != nil {
		o.gone = true
		return false
	}
	if o.flusher != nil {
		o.flusher.Flush()
	}
	return true
}

// local is the Backend over one open index: sisrv's.
type local struct{ ix *si.Index }

// searchOptions turns wire params into engine options.
func searchOptions(p Params) []si.SearchOption {
	var opts []si.SearchOption
	if p.Limit > 0 {
		opts = append(opts, si.WithLimit(p.Limit))
	}
	if p.Offset > 0 {
		opts = append(opts, si.WithOffset(p.Offset))
	}
	if p.CountOnly {
		opts = append(opts, si.WithCountOnly())
	}
	return opts
}

// result shapes one engine result for the wire.
func result(res *si.SearchResult) QueryResult {
	return QueryResult{Count: res.Count, Matches: res.Matches, Truncated: res.Stats.Truncated}
}

// Search evaluates one query on the index.
func (l local) Search(ctx context.Context, p Params) (QueryResult, *StatsJSON, error) {
	opts := searchOptions(p)
	if p.Explain {
		opts = append(opts, si.WithExplain())
	}
	res, err := l.ix.Search(ctx, p.Src, opts...)
	if err != nil {
		return QueryResult{}, nil, err
	}
	return result(res), statsJSON(res.Stats), nil
}

// Batch evaluates the queries as one SearchBatch call.
func (l local) Batch(ctx context.Context, queries []string, p Params) ([]QueryResult, error) {
	results, err := l.ix.SearchBatch(ctx, queries, searchOptions(p)...)
	if err != nil {
		return nil, err
	}
	out := make([]QueryResult, len(results))
	for i, res := range results {
		out[i] = result(res)
	}
	return out, nil
}

// Stream drives si.Index.SearchStream: each match is produced by
// advancing the streaming join just far enough to find it.
func (l local) Stream(ctx context.Context, p Params, emit func(MatchJSON) bool) (StreamSummary, error) {
	res, err := l.ix.SearchStream(ctx, p.Src, searchOptions(p)...)
	if err != nil {
		return StreamSummary{}, err
	}
	for m, err2 := range res.All() {
		if err = err2; err != nil || !emit(m) {
			break
		}
	}
	// The iteration has returned, so Count and Stats are final.
	return StreamSummary{Count: res.Count, Truncated: res.Stats.Truncated, Stats: statsJSON(res.Stats)}, err
}
