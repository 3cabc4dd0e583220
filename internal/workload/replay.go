package workload

import (
	"bytes"
	"encoding/json"
	stderrors "errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-replay load generator for the sisrv query
// server: it turns a query set (WH, FB, or any list of query texts)
// into HTTP traffic — sequential /search requests or /batch chunks —
// with a configurable number of concurrent clients, and reports
// throughput-oriented statistics. The server tests and serving
// benchmarks drive it against httptest instances; pointed at a real
// sisrv it doubles as a smoke load tool.

// ReplayOptions configure a replay run.
type ReplayOptions struct {
	// Concurrency is the number of client goroutines (default 1).
	Concurrency int
	// Repeat replays the whole query list this many times (default 1);
	// repeats exercise the server's plan cache the way production
	// traffic with recurring queries does.
	Repeat int
	// BatchSize > 1 sends /batch requests of up to that many queries
	// instead of one /search request per query.
	BatchSize int
	// CountOnly asks the server to omit match lists (both endpoints).
	CountOnly bool
	// Limit asks the server for at most this many matches per query
	// (the limit pushdown: sharded backends stop fetching postings
	// early). With a limit the server's count may be a lower bound, so
	// Matches becomes a throughput proxy rather than an exact total.
	Limit int
	// Timeout is sent with every request — the timeout= parameter on
	// /search and /count, the timeout field of /batch bodies (0 =
	// none); requests the server cuts off count as Errors.
	Timeout time.Duration
	// Client overrides http.DefaultClient.
	Client *http.Client
}

// ReplayStats summarize a replay run.
type ReplayStats struct {
	// Requests is the number of HTTP requests issued.
	Requests int
	// Queries is the number of queries successfully evaluated (batch
	// elements count individually; failed requests contribute none).
	Queries int
	// Errors counts failed requests (transport errors or non-200).
	Errors int
	// Rejected counts the subset of Errors shed by the server's
	// admission control (429 Too Many Requests) — load the server
	// refused quickly rather than failed to serve, reported separately
	// so saturation tests can tell shedding from breakage.
	Rejected int
	// Matches sums the reported match counts of all successful queries.
	Matches int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// replayResult mirrors the server's per-query payload; only the count
// is read here.
type replayResult struct {
	Count int `json:"count"`
}

// Replay sends the query list to a sisrv server at baseURL and returns
// aggregate statistics. Individual request failures are counted, not
// fatal; a nil error means the run completed, not that every request
// succeeded.
func Replay(baseURL string, queries []string, opt ReplayOptions) (ReplayStats, error) {
	if len(queries) == 0 {
		return ReplayStats{}, fmt.Errorf("workload: no queries to replay")
	}
	if opt.Concurrency < 1 {
		opt.Concurrency = 1
	}
	if opt.Repeat < 1 {
		opt.Repeat = 1
	}
	client := opt.Client
	if client == nil {
		client = http.DefaultClient
	}

	// Work units: single queries, or batch chunks when BatchSize > 1.
	type unit struct{ queries []string }
	var units []unit
	for r := 0; r < opt.Repeat; r++ {
		if opt.BatchSize > 1 {
			for i := 0; i < len(queries); i += opt.BatchSize {
				end := min(i+opt.BatchSize, len(queries))
				units = append(units, unit{queries: queries[i:end]})
			}
		} else {
			for _, q := range queries {
				units = append(units, unit{queries: []string{q}})
			}
		}
	}

	var requests, queriesDone, errors, rejected, matches atomic.Int64
	work := make(chan unit)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				requests.Add(1)
				counts, err := sendUnit(client, baseURL, u.queries, opt)
				if err != nil {
					errors.Add(1)
					var se *statusError
					if stderrors.As(err, &se) && se.code == http.StatusTooManyRequests {
						rejected.Add(1)
					}
					continue
				}
				queriesDone.Add(int64(len(counts)))
				for _, c := range counts {
					matches.Add(int64(c))
				}
			}
		}()
	}
	for _, u := range units {
		work <- u
	}
	close(work)
	wg.Wait()

	return ReplayStats{
		Requests: int(requests.Load()),
		Queries:  int(queriesDone.Load()),
		Errors:   int(errors.Load()),
		Rejected: int(rejected.Load()),
		Matches:  int(matches.Load()),
		Elapsed:  time.Since(start),
	}, nil
}

// sendUnit issues one request — /search for a single query, /batch for
// several — and returns the per-query match counts.
func sendUnit(client *http.Client, baseURL string, qs []string, opt ReplayOptions) ([]int, error) {
	if len(qs) == 1 && opt.BatchSize <= 1 {
		endpoint := "/search"
		if opt.CountOnly {
			endpoint = "/count"
		}
		params := url.Values{"q": {qs[0]}}
		if opt.Limit > 0 && !opt.CountOnly {
			params.Set("limit", fmt.Sprint(opt.Limit))
		}
		if opt.Timeout > 0 {
			params.Set("timeout", opt.Timeout.String())
		}
		resp, err := client.Get(baseURL + endpoint + "?" + params.Encode())
		if err != nil {
			return nil, err
		}
		defer drain(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return nil, &statusError{endpoint: endpoint, code: resp.StatusCode}
		}
		var r replayResult
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			return nil, err
		}
		return []int{r.Count}, nil
	}
	timeout := ""
	if opt.Timeout > 0 {
		timeout = opt.Timeout.String()
	}
	body, err := json.Marshal(struct {
		Queries   []string `json:"queries"`
		CountOnly bool     `json:"count_only,omitempty"`
		Limit     int      `json:"limit,omitempty"`
		Timeout   string   `json:"timeout,omitempty"`
	}{Queries: qs, CountOnly: opt.CountOnly, Limit: opt.Limit, Timeout: timeout})
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(baseURL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{endpoint: "/batch", code: resp.StatusCode}
	}
	var br struct {
		Results []replayResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, err
	}
	counts := make([]int, len(br.Results))
	for i, r := range br.Results {
		counts[i] = r.Count
	}
	return counts, nil
}

// statusError is a non-200 answer, kept typed so Replay can classify
// admission-control rejections (429) apart from other failures.
type statusError struct {
	endpoint string
	code     int
}

// Error formats the failed endpoint and status.
func (e *statusError) Error() string {
	return fmt.Sprintf("workload: %s: status %d", e.endpoint, e.code)
}

// drain consumes and closes a response body so connections are reused.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	body.Close()
}

// ServerQueries flattens the WH query set into replayable query texts,
// in group order — a ready-made serving workload whose queries share
// many cover pieces (every group is built from S(NP...)(VP...)
// skeletons), which is exactly the shape batched execution exploits.
func ServerQueries() []string {
	sets := WHQuerySet()
	var out []string
	for _, g := range WHGroups {
		for _, q := range sets[g] {
			out = append(out, q.String())
		}
	}
	return out
}
