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
// surface's NDJSON writer as they arrive, cut by the engine's own
// core.Cut over sequential group consultation — strict tid order,
// offset skipping and the one-past-the-window peek all happen at the
// router, so the client sees exactly the lines (and the summary flags)
// a single sharded sisrv would have sent.
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
	cut  core.Cut
	emit func(server.MatchJSON) bool
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
	st := &streamState{cut: core.NewCut(core.SearchOpts{Limit: p.Limit, Offset: p.Offset}), emit: emit}
	for gi := range r.groups {
		if err := r.streamGroup(ctx, gi, &groupStream{trees: sizes[gi], base: bases[gi]}, p.Src, st); err != nil {
			return server.StreamSummary{Count: st.cut.Count}, groupErr(gi, err)
		}
		st.cut.End(gi+1 < len(r.groups))
		if st.cut.Done {
			break
		}
	}
	return server.StreamSummary{Count: st.cut.Count, Truncated: st.cut.Truncated}, nil
}

// streamGroup consumes one group's slice of the stream, failing over
// across its replicas with offset resume. It returns nil when the
// group is exhausted or the stream is done (st.cut.Done); an error
// means every replica failed while the window still needed the group.
func (r *Router) streamGroup(ctx context.Context, gi int, g *groupStream, src string, st *streamState) error {
	var lastErr error
	for ai, n := range candidates(r.groups[gi]) {
		if ai > 0 {
			r.failovers.Add(1)
		}
		err := r.streamAttempt(ctx, n, g, src, st)
		if err == nil || st.cut.Done {
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
	asked := st.cut.Ask()
	q := nodeQuery(ctx, src, asked, g.consumed)
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
			// The node's own match cap may have clipped its slice
			// short of what the router asked for.
			st.cut.Clip(asked, lines, line.Truncated)
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
		if !st.cut.Take() {
			if st.cut.Done {
				return nil // the peek past the window
			}
			continue
		}
		m.TID += g.base
		if !st.emit(m) {
			st.cut.Stop() // the client went away
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return &nodeError{url: n.url, msg: "stream read: " + err.Error()}
	}
	return &nodeError{url: n.url, msg: "stream ended without a summary line"}
}
