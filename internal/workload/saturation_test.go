package workload

// Saturation test for the server's admission control: a MaxInflight=1
// server hammered by 16 concurrent clients must shed the overload as
// immediate 429s — visible in ReplayStats.Rejected and the server's
// own rejected counter — while goroutines stay bounded (shedding, not
// queueing) and the admitted fraction still completes correctly.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/si"
)

// TestReplaySaturation drives far more concurrency than the admission
// bound admits and checks load shedding end to end.
func TestReplaySaturation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ix")
	opts := si.DefaultBuildOptions()
	opts.Shards = 2
	if _, err := si.Build(dir, si.GenerateCorpus(2012, 400), opts); err != nil {
		t.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	ts := httptest.NewServer(server.New(ix, server.Config{MaxInflight: 1}))
	t.Cleanup(ts.Close)

	// Sample the goroutine count while the run is in flight: with
	// shedding the server never parks excess requests, so the count
	// stays near workers + connections. Unbounded queueing would let it
	// track the rejection count instead.
	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	sampleDone := make(chan struct{})
	stopSampling := make(chan struct{})
	go func() {
		defer close(sampleDone)
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(time.Millisecond):
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
			}
		}
	}()

	const workers = 16
	st, err := Replay(ts.URL, ServerQueries(), ReplayOptions{Concurrency: workers, Repeat: 4})
	close(stopSampling)
	<-sampleDone
	if err != nil {
		t.Fatal(err)
	}

	if st.Rejected == 0 {
		t.Fatalf("saturation never shed load: %+v", st)
	}
	if st.Rejected > st.Errors {
		t.Fatalf("rejected %d exceeds errors %d", st.Rejected, st.Errors)
	}
	if st.Queries == 0 {
		t.Fatalf("nothing was admitted under saturation: %+v", st)
	}

	// Every rejection must be a fast 429, so the whole run's failures
	// are accounted for by admission control: with a healthy index
	// nothing else errors.
	if st.Rejected != st.Errors {
		t.Fatalf("%d errors but only %d rejections — something failed beyond shedding", st.Errors, st.Rejected)
	}

	// The server's own ledger agrees with the client's.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Serving.Rejected != uint64(st.Rejected) {
		t.Fatalf("server counted %d rejections, client saw %d", stats.Serving.Rejected, st.Rejected)
	}
	if stats.Serving.MaxInflight != 1 {
		t.Fatalf("stats echo max_inflight %d, want 1", stats.Serving.MaxInflight)
	}

	// Bounded goroutines: workers plus their connections plus server
	// handler goroutines, with slack — but nowhere near one goroutine
	// per rejected request, which is what queueing admission would
	// accumulate (this run rejects hundreds).
	bound := int64(baseline + 8*workers)
	if p := peak.Load(); p > bound {
		t.Fatalf("goroutines peaked at %d (baseline %d) — admission is queueing, not shedding", p, baseline)
	}
}
