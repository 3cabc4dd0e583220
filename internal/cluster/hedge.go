package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/server"
)

// This file is the unary subrequest path: one logical request to one
// replica group, executed with failover and latency-percentile
// hedging. Streams have their own sequential resume path in stream.go.

// nodeError is a subrequest failure that carries the upstream HTTP
// status, so the router can distinguish the client's fault (4xx: relay
// as-is) from a replica's (5xx/429/transport/invalid answer: retry
// elsewhere, and surface as 502 if every replica fails).
type nodeError struct {
	url    string
	status int // 0 for transport-level failures and invalid answers
	msg    string
}

// Error formats the failure with its origin node.
func (e *nodeError) Error() string {
	if e.status == 0 {
		return fmt.Sprintf("node %s: %s", e.url, e.msg)
	}
	return fmt.Sprintf("node %s: %d: %s", e.url, e.status, e.msg)
}

// retryable reports whether another replica might succeed where this
// one failed: transport errors, invalid answers, 5xx and 429 are the
// replica's problem; any other 4xx means the request itself is bad and
// every replica would refuse it the same way.
func (e *nodeError) retryable() bool {
	return e.status == 0 || e.status >= 500 || e.status == http.StatusTooManyRequests
}

// HTTPStatus is the status the routed request answers with: the
// upstream's own when the request itself was refused, 502 when
// replicas failed.
func (e *nodeError) HTTPStatus() int {
	if e.retryable() {
		return http.StatusBadGateway
	}
	return e.status
}

// maxErrorBody bounds how much of an upstream error body the router
// reads back; error messages are one line, not payloads.
const maxErrorBody = 8 << 10

// attempt issues one subrequest to one node and decodes the reply.
// A non-2xx answer becomes a *nodeError carrying the upstream status
// and its {"error": ...} message; the request ID from ctx rides the
// X-Request-Id header so node logs line up with the routed request.
func (r *Router) attempt(ctx context.Context, n *node, method, path string, q url.Values, body []byte, out any) error {
	u := n.url + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return &nodeError{url: n.url, msg: err.Error()}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid := server.RequestIDFrom(ctx); rid != "" {
		req.Header.Set(server.RequestIDHeader, rid)
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return &nodeError{url: n.url, msg: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &nodeError{url: n.url, status: resp.StatusCode, msg: readErrorBody(resp)}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return &nodeError{url: n.url, msg: "bad response body: " + err.Error()}
	}
	n.lat.record(time.Since(start))
	return nil
}

// readErrorBody extracts the {"error": ...} message of a non-2xx node
// answer, falling back to the raw (bounded) body text.
func readErrorBody(resp *http.Response) string {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(raw) > 0 {
		return string(bytes.TrimSpace(raw))
	}
	return resp.Status
}

// groupDo executes one unary subrequest against a replica group:
// launch on the preferred (first ready) replica, hedge to the next one
// if no answer arrives within the node's hedge delay, fail over
// immediately on a retryable error, and return the first valid reply —
// cancelling whatever else is still in flight. check validates a
// decoded reply; a reply it refuses is the replica's fault, so the
// next replica is tried.
//
// The hedge fires on latency, not failure: the duplicate races the
// original and the first response of either wins, which converts one
// straggling replica into the next replica's p50 instead of the
// client-visible tail. A non-retryable error (a 400, typically a bad
// query) returns immediately — every replica would refuse it too.
func groupDo[T any](ctx context.Context, r *Router, g []*node, method, path string, q url.Values, body []byte, check func(*T) error) (T, error) {
	var zero T
	cands := candidates(g)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		idx int
		err error
	}
	results := make(chan outcome, len(cands))
	// Each attempt decodes into its own value: a losing attempt must
	// not race a concurrent winner.
	outs := make([]T, len(cands))
	launched := 0
	launch := func() {
		i := launched
		launched++
		go func() {
			err := r.attempt(ctx, cands[i], method, path, q, body, &outs[i])
			if err == nil {
				if cerr := check(&outs[i]); cerr != nil {
					err = &nodeError{url: cands[i].url, msg: "invalid answer: " + cerr.Error()}
				}
			}
			select {
			case results <- outcome{idx: i, err: err}:
			case <-ctx.Done():
			}
		}()
	}
	launch()

	var hedge <-chan time.Time
	armHedge := func() {
		hedge = nil
		if launched >= len(cands) {
			return
		}
		if d, ok := r.hedgeDelay(cands[launched-1]); ok {
			t := time.NewTimer(d)
			// The timer leaks its interval at worst; requests are short.
			hedge = t.C
		}
	}
	armHedge()

	inflight := 1
	var firstErr error
	for {
		select {
		case <-ctx.Done():
			if firstErr != nil {
				return zero, firstErr
			}
			return zero, &nodeError{url: "-", msg: ctx.Err().Error()}
		case <-hedge:
			r.hedges.Add(1)
			launch()
			inflight++
			armHedge()
		case o := <-results:
			if o.err == nil {
				return outs[o.idx], nil
			}
			ne, _ := o.err.(*nodeError)
			if ne != nil && !ne.retryable() {
				return zero, o.err // the request is at fault; no replica will differ
			}
			if firstErr == nil {
				firstErr = o.err
			}
			inflight--
			if launched < len(cands) {
				r.failovers.Add(1)
				launch()
				inflight++
				armHedge()
			}
			if inflight == 0 {
				return zero, firstErr
			}
		}
	}
}
