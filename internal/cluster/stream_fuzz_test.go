package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// FuzzRoutedStream serves fuzzed bytes as the /stream body of the only
// replica of both groups of a router (each group reports 10 trees) and
// holds the routed /stream answer to the wire contract whatever the
// node sends. It must never panic, and it is either a JSON error or
// NDJSON that ends in exactly one done:true line, after match lines
// that are strictly increasing in (tid, root), inside the cluster's
// tid range [0, 20), and at most limit of them. The committed seeds
// (testdata/fuzz/FuzzRoutedStream) hold a clean stream, a window,
// a tid out of range, lines out of order and repeated, a missing or
// failing summary, a node-clipped summary, a negative tid and garbage.
func FuzzRoutedStream(f *testing.F) {
	const trees = 10
	var mu sync.Mutex
	var body []byte
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			json.NewEncoder(w).Encode(server.ReadyResponse{Ready: true, Trees: trees})
		case "/stream":
			mu.Lock()
			b := body
			mu.Unlock()
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(b)
		default:
			http.NotFound(w, r)
		}
	}))
	defer node.Close()
	rt, err := New(Config{Groups: [][]string{{node.URL}, {node.URL}}, HealthEvery: time.Hour, HedgeAfter: -1})
	if err != nil {
		f.Fatal(err)
	}
	defer rt.Close()
	h := server.Over(rt, server.Config{MaxMatches: -1})
	// Most inputs are failing nodes, each a logged 502.
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	f.Fuzz(func(t *testing.T, stream []byte, limit, offset int) {
		mu.Lock()
		body = stream
		mu.Unlock()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/stream?q=NP&limit=%d&offset=%d", limit, offset), nil))
		out := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
				t.Fatalf("status %d without a JSON error: %q", rec.Code, out)
			}
			return
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("200 with content type %q: %q", ct, out)
		}
		lines := bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
		var summary server.StreamSummary
		if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil || !summary.Done {
			t.Fatalf("last line %q is not a done:true summary (%v)", lines[len(lines)-1], err)
		}
		matches := lines[:len(lines)-1]
		if limit > 0 && len(matches) > limit {
			t.Fatalf("%d match lines for limit %d", len(matches), limit)
		}
		var prev *server.MatchJSON
		for _, l := range matches {
			var m server.MatchJSON
			dec := json.NewDecoder(bytes.NewReader(l))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&m); err != nil {
				t.Fatalf("line %q is not a match line: %v", l, err)
			}
			if m.TID >= 2*trees {
				t.Fatalf("match %+v outside the cluster's %d trees", m, 2*trees)
			}
			if prev != nil && (m.TID < prev.TID || m.TID == prev.TID && m.Root <= prev.Root) {
				t.Fatalf("match %+v does not follow %+v", m, *prev)
			}
			prev = &m
		}
	})
}
