package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named, united figure of a run.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is everything a run reports: the gated or per-layer metrics,
// ungated figures printed for information, and the op tally.
type outcome struct {
	metrics   []metric
	info      []metric
	attempted int
	failed    int
	problems  []string // first few failures, for the log
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runConfig is one invocation's arguments.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	sz      sizes
	sisrv   string // prebuilt binary; empty = build it
	outDir  string // artifacts (query list, trace); empty = none kept
}

// maxReadRate bounds how many read ops a second of window can need;
// it only sizes the pre-shuffled issue order.
const maxReadRate = 8000

// checkHits compares an engine answer with the exact matches over the
// oracle prefix (tids < oracleTrees). Answers arrive in (tid, root)
// order, so a truncated answer is complete up to its last match and is
// checked as a prefix. Queries cover-based evaluation is not exact for
// must contain every exact match; the extra ones are their surplus.
func checkHits(engine []hit, truncated bool, exact []hit, isExact bool, oracleTrees int) (ok bool, surplus int) {
	inPrefix := func(h hit) bool { return int(h.TID) < oracleTrees }
	covered := exact
	if truncated && len(engine) > 0 && inPrefix(engine[len(engine)-1]) {
		last := engine[len(engine)-1]
		n := sort.Search(len(exact), func(i int) bool {
			return exact[i].TID > last.TID || (exact[i].TID == last.TID && exact[i].Root > last.Root)
		})
		covered = exact[:n]
	}
	n := sort.Search(len(engine), func(i int) bool { return !inPrefix(engine[i]) })
	engine = engine[:n]
	if isExact {
		return slices.Equal(engine, covered), 0
	}
	i := 0
	for _, x := range covered {
		for i < len(engine) && engine[i] != x {
			i++
		}
		if i == len(engine) {
			return false, 0
		}
	}
	return true, len(engine) - len(covered)
}

// endToEnd runs one workload against a real sisrv child and reports
// the end-to-end metrics.
func endToEnd(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{}
	w, sz := cfg.w, cfg.sz
	work, cleanup, err := newWorkDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	bin := cfg.sisrv
	if bin == "" {
		if bin, err = buildServer(ctx, work); err != nil {
			return nil, err
		}
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer hc.CloseIdleConnections()

	prep := w.prepare(cfg.seed, sz, int(cfg.seconds*maxReadRate)+1)
	if err := saveQueries(cfg, prep); err != nil {
		return nil, err
	}
	orc := newOracle(genTrees(cfg.seed, 0, sz.oracle))
	initial := w.initialTrees(sz)

	// Set up sz.setups times; the last one is measured on. Set-up is
	// corpus generation, si.Build, sisrv start until /readyz, and the
	// warm-up pass.
	var (
		srv    *child
		dir    string
		setups []float64
		refs   []readResp // warm-up answers: what each repeating query must keep answering
	)
	stopServer := func() {
		if srv != nil {
			srv.stop()
			os.RemoveAll(dir)
		}
	}
	defer stopServer()
	for i := 0; i < sz.setups; i++ {
		stopServer()
		start := time.Now()
		dir = filepath.Join(work, fmt.Sprintf("index-%d", i))
		if err := buildIndex(dir, genTrees(cfg.seed, 0, initial), w.shards); err != nil {
			return nil, err
		}
		if srv, err = startServer(ctx, bin, dir, hc); err != nil {
			return nil, err
		}
		// Warm-up faults the index pages in. Repeating workloads issue
		// every distinct query once, which also fills the plan cache as
		// steady traffic would and yields the reference answers;
		// fb-distinct uses a disjoint list so its timed queries still
		// miss the plan cache.
		warm := prep.queries
		if w.distinct {
			warm = prep.warm
		}
		refs = refs[:0]
		for _, q := range warm {
			a, err := get(ctx, hc, srv.base+w.path(q))
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			refs = append(refs, a.readResp)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Oracle, before the window: the engine's matches over the corpus
	// prefix must be the exact matcher's.
	var mu sync.Mutex // guards out and the tallies below across goroutines
	inexact, surplus := 0, 0
	verify := func(q string, rr readResp) {
		exact, isExact, err := orc.exact(q)
		ok, extra := false, 0
		if err == nil {
			ok, extra = checkHits(rr.Matches, rr.Truncated, exact, isExact, sz.oracle)
		}
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		if !ok {
			out.fail("oracle mismatch on %q (%v)", q, err)
		}
		if !isExact {
			inexact++
			surplus += extra
		}
	}
	verifyServed := func() error {
		for i, q := range prep.queries {
			rr := refs[i]
			if w.endpoint == "/count" {
				// A count carries no matches: check one /search page
				// of the same query, and the count against it.
				a, err := get(ctx, hc, srv.base+"/search?q="+url.QueryEscape(q))
				if err != nil {
					return err
				}
				page := a.readResp
				if page.Count > rr.Count || (!page.Truncated && page.Count != rr.Count) {
					out.fail("/count %d disagrees with /search %d on %q", rr.Count, page.Count, q)
				}
				rr = page
			}
			verify(q, rr)
		}
		return nil
	}
	if !w.distinct {
		if err := verifyServed(); err != nil {
			return nil, err
		}
	}

	// The timed window: closed loop, w.clients connections, each
	// taking the next op of the shared issue order.
	before, err := fetchStats(ctx, hc, srv.base)
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var (
		next     atomic.Int64
		state    atomic.Int64 // mixed-rw: 2×writes finished, +1 while one is in flight
		reads    int
		readFail int
		lats     []float64          // ms
		elapsed  float64            // seconds until the last reader stopped
		byState  = map[[2]int]int{} // (query, quiescent state) → count
		answers  = map[int32]readResp{}
		wg       sync.WaitGroup
		writeRes *writerResult
	)
	for i, r := range refs {
		if w.writes {
			byState[[2]int{i, 0}] = r.Count
		}
	}
	start := time.Now()
	deadline := start.Add(window)
	if w.writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeRes = runWriter(ctx, hc, srv.base, schedule(cfg.seed, sz, initial), cfg.seed, sz, start, window, &state)
		}()
	}
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(prep.order)) {
					break
				}
				qi := prep.order[i]
				s0 := state.Load()
				a, err := get(ctx, hc, srv.base+w.path(prep.queries[qi]))
				s1 := state.Load()
				rr := a.readResp
				mu.Lock()
				reads++
				failedBefore := out.failed
				switch {
				case err != nil:
					out.fail("read: %v", err)
				case w.distinct:
					answers[qi] = rr
				case w.writes:
					// Between two writes the index is in one known
					// state: every read of a query there must agree.
					if s0 == s1 && s0%2 == 0 {
						key := [2]int{int(qi), int(s0 / 2)}
						if want, seen := byState[key]; !seen {
							byState[key] = rr.Count
						} else if want != rr.Count {
							out.fail("count %d != %d for %q in state %d", rr.Count, want, prep.queries[qi], s0/2)
						}
					}
				default:
					ref := refs[qi]
					if rr.Count != ref.Count || rr.Truncated != ref.Truncated || !slices.Equal(rr.Matches, ref.Matches) {
						out.fail("answer changed for %q: count %d, reference %d", prep.queries[qi], rr.Count, ref.Count)
					}
				}
				readFail += out.failed - failedBefore
				mu.Unlock()
				if err == nil {
					mine = append(mine, a.latency.Seconds()*1e3)
				}
			}
			mu.Lock()
			lats = append(lats, mine...)
			elapsed = max(elapsed, time.Since(start).Seconds())
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.attempted += reads

	after, err := fetchStats(ctx, hc, srv.base)
	if err != nil {
		return nil, err
	}

	// Oracle, after the window: fb-distinct's own timed answers, and
	// the index mixed-rw's writer left behind.
	if w.distinct {
		verifyAnswers(answers, prep.queries, verify)
	}
	if w.writes {
		out.attempted += len(writeRes.ops)
		for _, p := range writeRes.problems {
			out.fail("%s", p)
		}
		if after.Index.LiveTrees != finalLiveTrees(sz, initial) || after.Index.Segments != 1 {
			out.fail("after the schedule: %d live trees in %d segments, want %d in 1",
				after.Index.LiveTrees, after.Index.Segments, finalLiveTrees(sz, initial))
		}
		for i, q := range prep.queries {
			a, err := get(ctx, hc, srv.base+w.path(q))
			if err != nil {
				return nil, err
			}
			refs[i] = a.readResp
		}
		inexact, surplus = 0, 0 // report the final index's, not both passes'
		if err := verifyServed(); err != nil {
			return nil, err
		}
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("no read completed in the window")
	}
	sort.Float64s(lats)
	out.metrics = []metric{
		{"p50_ms", quantile(lats, 0.50), "ms"},
		{"p95_ms", quantile(lats, 0.95), "ms"},
		{"qps", float64(reads-readFail) / elapsed, "1/s"},
		{"setup_s", median(setups), "s"},
		{"bytes_per_tree", float64(after.Serving.SegmentBytes) / float64(after.Index.LiveTrees), "B"},
	}
	lookups := float64(after.Serving.PlanCacheHits + after.Serving.PlanCacheMiss -
		before.Serving.PlanCacheHits - before.Serving.PlanCacheMiss)
	out.info = []metric{
		{"p99_ms", quantile(lats, 0.99), "ms"},
		{"max_ms", lats[len(lats)-1], "ms"},
		{"samples", float64(len(lats)), "count"},
		{"failed_share", float64(out.failed) / float64(out.attempted), "ratio"},
		{"inexact_queries", float64(inexact), "count"},
		{"surplus_matches", float64(surplus), "count"},
		{"posting_fetches_per_read", float64(after.Serving.PostingFetches-before.Serving.PostingFetches) / float64(reads), "count"},
		{"plan_cache_hit_share", float64(after.Serving.PlanCacheHits-before.Serving.PlanCacheHits) / max(lookups, 1), "ratio"},
	}
	if w.writes {
		out.info = append(out.info,
			metric{"writer_lag_s", writeRes.maxLag, "s"},
			metric{"segments_peak", float64(writeRes.segmentsPeak), "count"})
	}
	return out, nil
}

// verifyAnswers checks fb-distinct's timed answers against the oracle
// after the window, on every core: the reader is done by then.
func verifyAnswers(answers map[int32]readResp, queries []string, verify func(string, readResp)) {
	type job struct {
		q  string
		rr readResp
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				verify(j.q, j.rr)
			}
		}()
	}
	for qi, rr := range answers {
		jobs <- job{queries[qi], rr}
	}
	close(jobs)
	wg.Wait()
}

// median is the nearest-rank median of v, 0 when v is empty; v is
// left in its order.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// writerResult is what the mixed-rw writer observed.
type writerResult struct {
	ops          []writeOp
	problems     []string
	maxLag       float64
	segmentsPeak int
}

// runWriter executes the fixed schedule against the server: each op
// starts at its due offset (never early), and one that starts more
// than a unit late is a failed op. state is bumped around every write
// so readers can tell which index state an answer belongs to.
func runWriter(ctx context.Context, hc *http.Client, base string, ops []writeOp, seed uint64, sz sizes, start time.Time, window time.Duration, state *atomic.Int64) *writerResult {
	res := &writerResult{ops: ops}
	unit := window / scheduleUnits
	for _, op := range ops {
		due := start.Add(time.Duration(op.due * float64(unit)))
		time.Sleep(time.Until(due))
		lag := time.Since(due)
		res.maxLag = max(res.maxLag, lag.Seconds())
		if lag > unit {
			res.problems = append(res.problems, fmt.Sprintf("%s started %.2fs late (unit %.2fs)", op.kind, lag.Seconds(), unit.Seconds()))
		}
		state.Add(1)
		var err error
		var reply struct {
			Trees, Deleted, Segments int
			Compacted                bool
		}
		switch op.kind {
		case opAppend:
			var body bytes.Buffer
			if err = writeTrees(&body, genTrees(seed, op.lo, op.lo+sz.appendTrees)); err == nil {
				err = post(ctx, hc, http.MethodPost, base+"/append", body.Bytes(), &reply)
			}
			if err == nil && reply.Trees != sz.appendTrees {
				err = fmt.Errorf("appended %d trees, want %d", reply.Trees, sz.appendTrees)
			}
			res.segmentsPeak = max(res.segmentsPeak, reply.Segments)
		case opDelete:
			body, _ := json.Marshal(map[string][]int{"tids": op.tids})
			if err = post(ctx, hc, http.MethodPost, base+"/delete", body, &reply); err == nil && reply.Deleted != len(op.tids) {
				err = fmt.Errorf("deleted %d tids, want %d", reply.Deleted, len(op.tids))
			}
		case opCompact:
			if err = post(ctx, hc, http.MethodPost, base+"/compact", nil, &reply); err == nil && !reply.Compacted {
				err = fmt.Errorf("compaction did not run")
			}
		}
		state.Add(1)
		if err != nil {
			res.problems = append(res.problems, fmt.Sprintf("%s: %v", op.kind, err))
		}
	}
	return res
}

// saveQueries writes the run's query list to the artifact directory.
func saveQueries(cfg runConfig, prep prepared) error {
	if cfg.outDir == "" {
		return nil
	}
	var b bytes.Buffer
	for _, q := range prep.queries {
		fmt.Fprintln(&b, q)
	}
	name := fmt.Sprintf("queries-%s-%d.txt", cfg.w.name, cfg.seed)
	return os.WriteFile(filepath.Join(cfg.outDir, name), b.Bytes(), 0o644)
}
