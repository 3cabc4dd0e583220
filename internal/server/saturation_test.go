package server

import (
	"encoding/json"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestSaturationShedsLoad drives far more concurrency than the
// admission bound admits: a MaxInflight=1 server hammered by 16
// concurrent clients must shed the overload as immediate 429s — counted
// by the clients and by the server's own rejected counter alike — while
// goroutines stay bounded (shedding, not queueing) and the admitted
// requests still complete correctly.
func TestSaturationShedsLoad(t *testing.T) {
	ts, _ := newTestServer(t, 2, Config{MaxInflight: 1})

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

	// Every WH query four times, one /search request each, spread over
	// 16 client goroutines.
	const workers = 16
	work := make(chan string)
	var admitted, failed, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				resp, err := http.Get(ts.URL + "/search?" + url.Values{"q": {q}}.Encode())
				if err != nil {
					failed.Add(1)
					continue
				}
				var body struct {
					Count int `json:"count"`
				}
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					failed.Add(1)
					rejected.Add(1)
				case resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil:
					failed.Add(1)
				default:
					admitted.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	for range 4 {
		for _, q := range workload.ServerQueries() {
			work <- q
		}
	}
	close(work)
	wg.Wait()
	close(stopSampling)
	<-sampleDone

	if rejected.Load() == 0 {
		t.Fatalf("saturation never shed load: %d admitted, %d errors", admitted.Load(), failed.Load())
	}
	if admitted.Load() == 0 {
		t.Fatalf("nothing was admitted under saturation: %d errors", failed.Load())
	}
	// Every rejection must be a fast 429, so the whole run's failures
	// are accounted for by admission control: with a healthy index
	// nothing else errors.
	if rejected.Load() != failed.Load() {
		t.Fatalf("%d errors but only %d rejections — something failed beyond shedding", failed.Load(), rejected.Load())
	}

	// The server's own ledger agrees with the clients'.
	var stats StatsResponse
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Serving.Rejected != uint64(rejected.Load()) {
		t.Fatalf("server counted %d rejections, clients saw %d", stats.Serving.Rejected, rejected.Load())
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
