package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/core"
	"repro/internal/server"
)

// This file is the routed /stream: node lines are handed to the
// surface's NDJSON writer as they arrive, with the engine's
// resultStream semantics mapped onto sequential group consultation —
// strict tid order, offset skipping and the one-past-the-window peek
// all happen at the router, so the client sees exactly the lines (and
// the summary flags) a single sharded sisrv would have sent.
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
	emit      func(server.MatchJSON) bool
}

// groupStream is one group's slice of the stream, kept across the
// replicas it fails over to.
type groupStream struct {
	trees    int64  // the group's tid range is [0, trees)
	base     uint32 // added to its tids to make them global
	consumed int    // matches consumed from the group, across attempts
	last     server.MatchJSON
}

// maxStreamLine bounds one NDJSON line from a node; real lines are
// tens of bytes.
const maxStreamLine = 1 << 20

// Stream evaluates one query through the cluster, group by group in
// tid order, handing each window match to emit as its node line
// arrives.
func (r *Router) Stream(ctx context.Context, p server.Params, emit func(server.MatchJSON) bool) (server.StreamSummary, error) {
	sizes, bases := r.layout()
	st := &streamState{target: core.SearchOpts{Limit: p.Limit, Offset: p.Offset}.Target(), offset: p.Offset, emit: emit}
	for gi := range r.groups {
		if st.done {
			break
		}
		if err := r.streamGroup(ctx, gi, &groupStream{trees: sizes[gi], base: bases[gi]}, p.Src, st); err != nil {
			return server.StreamSummary{Count: st.produced}, groupErr(gi, err)
		}
		// The window is complete with groups still unconsulted: their
		// matches exist or not, but fetching them is work the window
		// does not need — the engine's exact stop, and its exact
		// truncation flag.
		if st.target > 0 && st.produced >= st.target && gi+1 < len(r.groups) {
			st.truncated, st.done = true, true
		}
	}
	return server.StreamSummary{Count: st.produced, Truncated: st.truncated}, nil
}

// streamGroup consumes one group's slice of the stream, failing over
// across its replicas with offset resume. It returns nil when the
// group is exhausted or the stream is finished (st.done); an error
// means every replica failed while the window still needed the group.
func (r *Router) streamGroup(ctx context.Context, gi int, g *groupStream, src string, st *streamState) error {
	var lastErr error
	for ai, n := range candidates(r.groups[gi]) {
		if ai > 0 {
			r.failovers.Add(1)
		}
		err := r.streamAttempt(ctx, n, g, src, st)
		if err == nil || st.done {
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
// routed stream, resuming at g.consumed and advancing it as lines are
// read so a follow-up attempt on another replica continues exactly
// where this one stopped. Each line is checked like a unary answer: a
// match outside the group's tid range or not after the one before it
// fails the attempt. A nil return means the node finished its slice
// cleanly (summary seen, no error) or the routed stream is done.
func (r *Router) streamAttempt(ctx context.Context, n *node, g *groupStream, src string, st *streamState) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // aborting mid-body stops the node's evaluation
	wantLimit := -1
	if st.target > 0 {
		wantLimit = st.target + 1 - st.produced // through the peek match
	}
	q := nodeQuery(ctx, src, wantLimit, g.consumed)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/stream?"+q.Encode(), nil)
	if err != nil {
		return &nodeError{url: n.url, msg: err.Error()}
	}
	if rid := server.RequestIDFrom(ctx); rid != "" {
		req.Header.Set(server.RequestIDHeader, rid)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return &nodeError{url: n.url, msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &nodeError{url: n.url, status: resp.StatusCode, msg: readErrorBody(resp)}
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
				st.truncated, st.done = true, true
			}
			return nil
		}
		m := server.MatchJSON{TID: line.TID, Root: line.Root}
		var prev *server.MatchJSON
		if g.consumed > 0 {
			prev = &g.last
		}
		if err := checkMatch(m, g.trees, prev); err != nil {
			return &nodeError{url: n.url, msg: "invalid stream line: " + err.Error()}
		}
		lines++
		g.consumed++
		g.last = m
		st.produced++
		if st.produced <= st.offset {
			continue // paging: skip into the window
		}
		if st.target > 0 && st.produced > st.target {
			// The peek match past the window: more matches exist than
			// the window holds, so the count is a lower bound.
			st.truncated, st.done = true, true
			return nil
		}
		m.TID += g.base
		if !st.emit(m) {
			st.done = true // the client went away
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return &nodeError{url: n.url, msg: "stream read: " + err.Error()}
	}
	return &nodeError{url: n.url, msg: "stream ended without a summary line"}
}
