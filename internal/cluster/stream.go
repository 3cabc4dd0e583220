package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// This file is the routed /stream: NDJSON re-streamed to the client as
// node lines arrive, with the engine's resultStream semantics mapped
// onto sequential group consultation — strict tid order, offset
// skipping and the one-past-the-window peek all happen at the router,
// so the client sees exactly the lines (and the summary flags) a
// single sharded sisrv would have sent.
//
// The distributed twist is mid-stream failover: the router counts the
// matches it has consumed from the current group, and when a replica
// dies mid-body it reissues the group's stream to the next replica
// with offset=consumed — segments are immutable and the match order
// deterministic, so the resumed stream continues exactly where the
// dead node stopped and the client never notices beyond added latency.

// streamLine is one NDJSON line of a node /stream: either a match
// (done absent) or the trailing summary (done true).
type streamLine struct {
	Done      bool   `json:"done"`
	TID       uint32 `json:"tid"`
	Root      uint32 `json:"root"`
	Truncated bool   `json:"truncated"`
	Error     string `json:"error"`
}

// streamState threads the whole routed stream's progress through the
// per-group, per-attempt consumption.
type streamState struct {
	target    int // offset+limit; 0 = unbounded
	offset    int
	produced  int  // matches consumed across all groups, offset-skips and peek included
	truncated bool // window cut evaluation short (or a node's own cap did)
	done      bool // stop consulting groups
	gone      bool // client write failed; nothing more can be sent
	committed bool // the 200 + NDJSON header is on the wire
}

// maxStreamLine bounds one NDJSON line from a node; real lines are
// tens of bytes.
const maxStreamLine = 1 << 20

// handleStream serves GET /stream through the cluster.
func (r *Router) handleStream(w http.ResponseWriter, req *http.Request) {
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
	bases := r.bases()
	st := &streamState{target: core.SearchOpts{Limit: p.Limit, Offset: p.Offset}.Target(), offset: p.Offset}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)

	var streamErr error
	for gi := range r.groups {
		if st.done {
			break
		}
		if err := r.streamGroup(ctx, w, enc, flusher, gi, bases[gi], p.Src, st); err != nil {
			streamErr = fmt.Errorf("group %d: %w", gi, err)
			break
		}
		// The window is complete with groups still unconsulted: their
		// matches exist or not, but fetching them is work the window
		// does not need — the engine's exact stop, and its exact
		// truncation flag.
		if st.target > 0 && st.produced >= st.target && gi+1 < len(r.groups) {
			st.truncated = true
			st.done = true
		}
	}
	if st.gone {
		return // client went away mid-stream; nothing left to tell it
	}
	if streamErr != nil && !st.committed {
		// Nothing on the wire yet: answer with a status, like a node
		// whose stream fails before its first match.
		r.fail(w, failStatus(ctx, streamErr), streamErr.Error())
		return
	}
	if !st.committed {
		commitStream(w, st)
	}
	summary := server.StreamSummary{
		Done:      true,
		Count:     st.produced,
		Truncated: st.truncated,
		TookNS:    time.Since(start).Nanoseconds(),
		RequestID: server.RequestIDFrom(req.Context()),
	}
	if streamErr != nil {
		summary.Error = streamErr.Error()
		summary.Truncated = true
		r.errors.Add(1)
	}
	_ = enc.Encode(summary)
	if flusher != nil {
		flusher.Flush()
	}
}

// commitStream puts the NDJSON 200 on the wire.
func commitStream(w http.ResponseWriter, st *streamState) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	st.committed = true
}

// streamGroup consumes one group's slice of the stream, failing over
// across its replicas with offset resume. It returns nil when the
// group is exhausted or the stream is finished (st.done); an error
// means every replica failed while the window still needed the group.
func (r *Router) streamGroup(ctx context.Context, w http.ResponseWriter, enc *json.Encoder, flusher http.Flusher, gi int, base uint32, src string, st *streamState) error {
	consumed := 0 // matches consumed from this group, across attempts
	cands := candidates(r.groups[gi])
	var lastErr error
	for ai, n := range cands {
		if ai > 0 {
			r.failovers.Add(1)
		}
		err := r.streamAttempt(ctx, n, base, src, &consumed, st, w, enc, flusher)
		if err == nil || st.done || st.gone {
			return nil
		}
		ne, _ := err.(*nodeError)
		if ne != nil && !ne.retryable() {
			return err // the query itself is refused; no replica will differ
		}
		lastErr = err
		if ctx.Err() != nil {
			return lastErr
		}
	}
	return lastErr
}

// streamAttempt opens one node /stream and pumps its lines into the
// client stream, resuming at *consumed and advancing it as lines are
// read so a follow-up attempt on another replica continues exactly
// where this one stopped. A nil return means the node finished its
// slice cleanly (summary seen, no error) or the routed stream is done.
func (r *Router) streamAttempt(ctx context.Context, n *node, base uint32, src string, consumed *int, st *streamState, w http.ResponseWriter, enc *json.Encoder, flusher http.Flusher) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // aborting mid-body stops the node's evaluation
	wantLimit := -1
	if st.target > 0 {
		wantLimit = st.target + 1 - st.produced // through the peek match
	}
	q := nodeQuery(ctx, src, wantLimit, *consumed)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/stream?"+q.Encode(), nil)
	if err != nil {
		return &nodeError{url: n.url, msg: err.Error()}
	}
	if rid := server.RequestIDFrom(ctx); rid != "" {
		req.Header.Set(server.RequestIDHeader, rid)
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return &nodeError{url: n.url, msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &nodeError{url: n.url, status: resp.StatusCode, msg: readErrorBody(resp)}
	}
	if !st.committed {
		// The node accepted the query and started evaluating: commit
		// the 200 exactly where a node commits its own.
		commitStream(w, st)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)
	lines := 0
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return &nodeError{url: n.url, msg: "bad stream line: " + err.Error()}
		}
		if line.Done {
			if line.Error != "" {
				// The node died mid-evaluation; its lines so far are a
				// valid prefix, so the next replica resumes after them.
				return &nodeError{url: n.url, msg: line.Error}
			}
			if line.Truncated && (wantLimit < 0 || lines < wantLimit) {
				// The node's own match cap clipped its slice short of
				// what the router asked for. Matches are now missing in
				// the middle of the global order, so consulting further
				// groups would emit a gapped stream; stop and flag it.
				st.truncated = true
				st.done = true
			}
			return nil
		}
		lines++
		*consumed++
		st.produced++
		if st.produced <= st.offset {
			continue // paging: skip into the window
		}
		if st.target > 0 && st.produced > st.target {
			// The peek match past the window: more matches exist than
			// the window holds, so the count is a lower bound.
			st.truncated = true
			st.done = true
			return nil
		}
		if err := enc.Encode(server.MatchJSON{TID: line.TID + base, Root: line.Root}); err != nil {
			st.gone = true
			return nil
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := sc.Err(); err != nil {
		return &nodeError{url: n.url, msg: "stream read: " + err.Error()}
	}
	return &nodeError{url: n.url, msg: "stream ended without a summary line"}
}
