package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one replayed
// request share Query; Parent is the span that caused this one (0 for
// the http round trip at the top).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Query  int    `json:"query"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The replay is
// sequential, so the op being replayed and the server span of its one
// HTTP request are single fields; the mutex is there because that span
// is recorded on the handler's goroutine.
type tracer struct {
	mu         sync.Mutex
	epoch      time.Time
	spans      []span
	op         int // the op being replayed
	lastServer int // id of the server span of op's request
}

// add records a span of the op being replayed and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, name, t.op, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds()})
	if name == "server" {
		t.lastServer = id
	}
	return id
}

// begin makes op the op being replayed.
func (t *tracer) begin(op int) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// linkServer parents the op's server span under its http span, which
// can only be recorded once the answer is back, and returns the server
// span's id and duration.
func (t *tracer) linkServer(httpSpan int) (int, time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[t.lastServer-1]
	s.Parent = httpSpan
	return s.ID, time.Duration(s.End - s.Start)
}

// timed runs fn as a span and returns the span's id and duration.
func (t *tracer) timed(name string, parent int, fn func() error) (int, time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	return t.add(name, parent, start, end), end.Sub(start), err
}

// middleware wraps sisrv's handler in the server span. The span ends
// when the handler returns; the buffered answer is copied out after.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, r)
		t.add("server", 0, start, time.Now()) // the client links it under its http span
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
}

// selfTimes returns each layer's summed self time: a span's duration
// minus its children's. The layer probes replay a request's work after
// it was served, so children are subtracted by duration, not by
// interval overlap, and one span's remainder can be negative — run-to-
// run noise, or shards the engine evaluates side by side. Remainders
// cancel within a layer; only a layer's total is floored at zero.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids[s.Parent] += s.End - s.Start
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += float64(s.End - s.Start - kids[s.ID])
	}
	for name, v := range self {
		self[name] = max(v, 0)
	}
	return self
}

// writeSpans dumps the spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// samples collects per-op values of the per-layer metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) median(name string) float64 { return median(s[name]) }

func (s samples) mean(name string) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	return s.sum(name) / float64(len(s[name]))
}

func (s samples) sum(name string) float64 {
	t := 0.0
	for _, x := range s[name] {
		t += x
	}
	return t
}

// countOps is how many leading ops the count metrics are taken over: a
// fixed prefix of the issue order, so they repeat exactly however many
// ops the time-bounded replay gets through after it.
const countOps = 300

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traced replays a workload's ops in-process, one at a time: each goes
// over loopback HTTP through sisrv's handler (spans http ⊃ server),
// then through si.Search directly, then through every layer's public
// entry point on that query's own keys and posting blobs. It ends with
// the write path: mixed-rw's schedule, a one-append/delete/compact
// cycle elsewhere.
func traced(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{}
	w, sz := cfg.w, cfg.sz
	work, cleanup, err := newWorkDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	dir := filepath.Join(work, "index")
	initial := w.initialTrees(sz)
	trees := genTrees(cfg.seed, 0, initial)
	buildStart := time.Now()
	if err := buildIndex(dir, trees, w.shards); err != nil {
		return nil, err
	}
	buildS := time.Since(buildStart).Seconds()
	probes, err := openProbes(dir)
	if err != nil {
		return nil, err
	}
	defer probes.close()

	// Three handles on one index, each with its own plan cache: behind
	// the handler, under the traced direct search, under the untraced
	// one — so a query misses or hits the cache alike on all three.
	var handles [3]*liveIndex
	for i := range handles {
		if handles[i], err = openIndex(dir); err != nil {
			return nil, err
		}
		defer handles[i].Close()
	}
	served, direct, plain := handles[0], handles[1], handles[2]
	tr := &tracer{epoch: time.Now()}
	ts := httptest.NewServer(tr.middleware(newHandler(served, dir)))
	defer ts.Close()
	hc := ts.Client()

	prep := w.prepare(cfg.seed, sz, int(cfg.seconds*maxReadRate)+1)
	sm := samples{}
	strategies := map[string]int{}
	plans := map[int32]*plan{}
	var tracedNS, plainNS []float64 // per op: si.Search under a span, and bare
	countOnly := w.endpoint == "/count"
	limit := w.limit
	if !countOnly && limit == 0 {
		limit = 1000 // the server's default match cap
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i, qi := range prep.order {
		counted := i < countOps
		if !counted && time.Now().After(deadline) {
			break
		}
		src := prep.queries[qi]
		out.attempted++
		tr.begin(i)

		runPlain := func() error {
			start := time.Now()
			_, err := search(ctx, plain, src, limit, countOnly, false)
			plainNS = append(plainNS, float64(time.Since(start).Nanoseconds()))
			return err
		}
		if i%2 == 0 { // alternate which direct search runs on the colder cache
			if err := runPlain(); err != nil {
				return nil, err
			}
		}

		// http ⊃ server.
		a, err := get(ctx, hc, ts.URL+w.path(src))
		if err != nil {
			out.fail("traced read: %v", err)
			continue
		}
		rr := a.readResp
		serverID, serverDur := tr.linkServer(tr.add("http", 0, a.start, a.start.Add(a.latency)))
		sm.add("http.roundtrip_self_us", us(a.latency-serverDur))
		sm.add("server.response_bytes", float64(a.bytes))

		// si.search, directly.
		var res searched
		searchID, searchDur, err := tr.timed("core", serverID, func() (err error) {
			res, err = search(ctx, direct, src, limit, countOnly, false)
			return err
		})
		if err != nil {
			return nil, err
		}
		tracedNS = append(tracedNS, float64(searchDur.Nanoseconds()))
		if i%2 == 1 {
			if err := runPlain(); err != nil {
				return nil, err
			}
		}
		if res.count != rr.Count {
			out.fail("%q: direct search counts %d, served %d", src, res.count, rr.Count)
		}
		sm.add("server.handler_self_us", us(serverDur-searchDur))
		sm.add("core.plan_cache_hit_share", b2f(res.cacheHit))
		strategies[res.strategy]++

		// query, cover, planner: only a plan-cache miss pays them.
		below := time.Duration(0)
		pl := plans[qi]
		if !res.cacheHit || pl == nil {
			var q *parsedQ
			_, d, err := tr.timed("query", searchID, func() (err error) { q, err = parse(src); return })
			if err != nil {
				return nil, err
			}
			sm.add("query.parse_us", us(d))
			below += d
			var planID int
			planID, d, err = tr.timed("planner", searchID, func() (err error) { pl, err = probes.plan(q); return })
			if err != nil {
				return nil, err
			}
			sm.add("planner.plan_us", us(d))
			below += d
			pieces := 0
			_, d, err = tr.timed("cover", planID, func() (err error) { pieces, err = probes.decompose(q); return })
			if err != nil {
				return nil, err
			}
			sm.add("cover.decompose_us", us(d))
			sm.add("cover.pieces", float64(pieces))
			plans[qi] = pl
		}

		// btree ⊃ pager, postings, join — per leaf the engine consulted.
		leaves := len(probes.leaves)
		if limit > 0 && !countOnly {
			leaves = min(leaves, max(res.shards, 1))
		}
		streams := res.strategy == "stream"
		matches := 0
		for li := 0; li < leaves; li++ {
			if limit > 0 && !countOnly && matches > limit {
				break // the window is full: shards the engine only looked ahead to are cancelled
			}
			blobs, ok, d, err := probeFetch(tr, probes, pl, li, searchID, i, sm)
			if err != nil {
				return nil, err
			}
			below += d
			if !ok {
				continue // a piece has no postings in this leaf: the engine stops here too
			}
			// postings, the block way: every piece decoded whole into the
			// relations join.Run takes.
			arena := newArena()
			rels := make([][]entry, len(blobs))
			blockStart := time.Now()
			entries, bytes := 0, 0
			for pi, b := range blobs {
				if rels[pi], err = decode(b, arena); err != nil {
					return nil, err
				}
				entries += len(rels[pi])
				bytes += len(b)
			}
			blockEnd := time.Now()
			if entries == 0 {
				continue
			}
			sm.add("postings.bytes_per_entry", float64(bytes)/float64(entries))

			// join: both entry points; the one the engine used is the span.
			runStart := time.Now()
			n, _, err := joinRun(ctx, pl, rels, countOnly)
			runEnd := time.Now()
			if err != nil {
				return nil, err
			}
			sm.add("join.run_us", us(runEnd.Sub(runStart)))
			want := 0
			if limit > 0 && !countOnly {
				want = limit + 1 - matches
			}
			streamStart := time.Now()
			got, read, _, err := joinStream(ctx, pl, blobs, want)
			streamEnd := time.Now()
			if err != nil {
				return nil, err
			}
			sm.add("join.stream_us", us(streamEnd.Sub(streamStart)))

			// postings, the streaming way: the share of each list the
			// stream pulled, through the cursor it pulls from.
			lazyStart := time.Now()
			pulled := 0
			for _, b := range blobs {
				k, err := decodeLazy(b, float64(read)/float64(entries))
				if err != nil {
					return nil, err
				}
				pulled += k
			}
			lazyEnd := time.Now()

			if streams {
				// The stream decodes inside the join: postings is its child.
				joinID := tr.add("join", searchID, streamStart, streamEnd)
				tr.add("postings", joinID, lazyStart, lazyEnd)
				below += streamEnd.Sub(streamStart)
				matches += got
				if pulled > 0 {
					sm.add("postings.decode_ns_per_entry", float64(lazyEnd.Sub(lazyStart).Nanoseconds())/float64(pulled))
				}
			} else {
				tr.add("postings", searchID, blockStart, blockEnd)
				tr.add("join", searchID, runStart, runEnd)
				below += blockEnd.Sub(blockStart) + runEnd.Sub(runStart)
				matches += n
				sm.add("postings.decode_ns_per_entry", float64(blockEnd.Sub(blockStart).Nanoseconds())/float64(entries))
			}
		}
		sm.add("core.search_self_us", us(max(searchDur-below, 0)))

		if counted {
			// Explain is off the timed path: it adds per-piece counters.
			ex, err := search(ctx, direct, src, limit, countOnly, true)
			if err != nil {
				return nil, err
			}
			sm.add("postings.entries_decoded", float64(ex.actual))
			sm.add("core.posting_fetches", float64(res.fetches))
			sm.add("core.shards_consulted", float64(res.shards))
			sm.add("join.rows", float64(res.rows))
			sm.add("matches", float64(max(res.count, 0)))
			if ex.actual > 0 {
				sm.add("planner.est_error", float64(ex.est)/float64(ex.actual))
			}
			if w.limit > 0 {
				// What the limit saves: the same query, unbounded.
				full, err := search(ctx, direct, src, 0, true, true)
				if err != nil {
					return nil, err
				}
				sm.add("entries_decoded_unbounded", float64(full.actual))
			}
		}
	}

	// The write path, on the served handle.
	ops := schedule(cfg.seed, sz, initial)
	if !w.writes {
		// One cycle: the schedule's first append, delete and compaction.
		cycle, seen := ops[:0:0], map[writeKind]bool{}
		for _, op := range ops {
			if !seen[op.kind] {
				seen[op.kind] = true
				cycle = append(cycle, op)
			}
		}
		ops = cycle
	}
	base := indexGauges(served)
	segmentsPeak, ampPeak := base.segments, 1.0
	for _, op := range ops {
		out.attempted++
		start := time.Now()
		switch op.kind {
		case opAppend:
			_, err = served.Append(ctx, genTrees(cfg.seed, op.lo, op.lo+sz.appendTrees))
		case opDelete:
			_, err = served.Delete(ctx, op.tids...)
		case opCompact:
			_, err = served.Compact(ctx)
		}
		if err != nil {
			out.fail("%s: %v", op.kind, err)
			continue
		}
		sm.add("core."+op.kind.String()+"_s", time.Since(start).Seconds())
		g := indexGauges(served)
		segmentsPeak = max(segmentsPeak, g.segments)
		ampPeak = max(ampPeak, float64(g.segmentBytes)/float64(g.liveTrees)/(float64(base.segmentBytes)/float64(base.liveTrees)))
	}

	name := fmt.Sprintf("trace-%s-%d.jsonl", w.name, cfg.seed)
	traceDir := cfg.outDir
	if traceDir == "" {
		traceDir = work
	}
	if err := writeSpans(filepath.Join(traceDir, name), tr.spans); err != nil {
		return nil, err
	}

	self := selfTimes(tr.spans)
	roundTrip := 0.0
	for _, s := range tr.spans {
		if s.Name == "http" {
			roundTrip += float64(s.End - s.Start)
		}
	}
	// Tracing overhead: the median paired difference between the traced
	// and the bare direct search of the same op, against the bare median.
	paired := make([]float64, len(tracedNS))
	for i := range paired {
		paired[i] = tracedNS[i] - plainNS[i]
	}
	sort.Float64s(paired)
	sort.Float64s(tracedNS)
	sort.Float64s(plainNS)
	ops0 := float64(max(len(tracedNS), 1))
	m := func(name string, v float64, unit string) { out.metrics = append(out.metrics, metric{name, v, unit}) }
	m("query.parse_us", sm.median("query.parse_us"), "us")
	m("cover.decompose_us", sm.median("cover.decompose_us"), "us")
	m("cover.pieces", sm.mean("cover.pieces"), "count")
	m("planner.plan_us", sm.median("planner.plan_us"), "us")
	m("planner.est_error", sm.median("planner.est_error"), "ratio")
	for _, s := range []string{"filter", "stack", "block", "stream"} {
		m("planner.strategy_share."+s, float64(strategies[s])/ops0, "ratio")
	}
	m("core.plan_cache_hit_share", sm.mean("core.plan_cache_hit_share"), "ratio")
	m("btree.get_us", sm.median("btree.get_us"), "us")
	m("btree.pages_per_get", sm.mean("btree.pages_per_get"), "count")
	m("pager.read_page_ns", sm.median("pager.read_page_ns"), "ns")
	m("postings.decode_ns_per_entry", sm.median("postings.decode_ns_per_entry"), "ns")
	m("postings.bytes_per_entry", sm.mean("postings.bytes_per_entry"), "B")
	m("postings.entries_decoded", sm.mean("postings.entries_decoded"), "count")
	m("postings.decoded_per_match", sm.sum("postings.entries_decoded")/max(sm.sum("matches"), 1), "ratio")
	m("join.run_us", sm.median("join.run_us"), "us")
	m("join.stream_us", sm.median("join.stream_us"), "us")
	m("join.rows", sm.mean("join.rows"), "count")
	m("join.rows_per_match", sm.sum("join.rows")/max(sm.sum("matches"), 1), "ratio")
	m("core.search_self_us", sm.median("core.search_self_us"), "us")
	m("core.posting_fetches", sm.mean("core.posting_fetches"), "count")
	m("core.shards_consulted", sm.mean("core.shards_consulted"), "count")
	m("server.handler_self_us", sm.median("server.handler_self_us"), "us")
	m("server.response_bytes", sm.mean("server.response_bytes"), "B")
	m("http.roundtrip_self_us", sm.median("http.roundtrip_self_us"), "us")
	m("subtree.extract_us_per_tree", us(probes.built.extract)/float64(probes.built.trees), "us")
	m("btree.build_s", probes.built.load.Seconds(), "s")
	m("core.build_s", buildS, "s")
	m("core.append_s", sm.median("core.append_s"), "s")
	m("core.delete_s", sm.median("core.delete_s"), "s")
	m("core.compact_s", sm.median("core.compact_s"), "s")
	m("core.segments_peak", float64(segmentsPeak), "count")
	m("core.space_amp_peak", ampPeak, "ratio")
	for _, layer := range traceLayers {
		m("share."+layer, self[layer]/max(roundTrip, 1), "ratio")
	}
	m("trace.overhead_pct", 100*quantile(paired, 0.5)/quantile(plainNS, 0.5), "%")
	out.info = []metric{
		{"replayed_ops", ops0, "count"},
		{"spans", float64(len(tr.spans)), "count"},
		{"si_search_traced_us", quantile(tracedNS, 0.5) / 1e3, "us"},
		{"si_search_untraced_us", quantile(plainNS, 0.5) / 1e3, "us"},
	}
	if w.limit > 0 {
		out.info = append(out.info, metric{"entries_decoded_unbounded", sm.mean("entries_decoded_unbounded"), "count"})
	}
	return out, nil
}

// traceLayers are the span names, outermost first; "core" is si.Search.
var traceLayers = []string{"http", "server", "core", "query", "planner", "cover", "btree", "pager", "postings", "join"}

// probeFetch looks up every plan piece's key in one leaf, in the
// plan's fetch order, stopping like the engine at the first key the
// leaf does not hold. It records btree ⊃ pager spans and returns the
// blobs indexed like pl.Pieces.
func probeFetch(tr *tracer, p *probeSet, pl *plan, li, parent, query int, sm samples) (blobs [][]byte, ok bool, total time.Duration, err error) {
	blobs = make([][]byte, len(pl.Pieces))
	for i := range pl.Pieces {
		pi := i
		if len(pl.Order) == len(pl.Pieces) {
			pi = pl.Order[i]
		}
		var pages int
		getID, d, err := tr.timed("btree", parent, func() (err error) {
			blobs[pi], pages, err = p.get(li, string(pl.Pieces[pi].Key))
			return
		})
		if err != nil {
			return nil, false, total, err
		}
		total += d
		sm.add("btree.get_us", us(d))
		sm.add("btree.pages_per_get", float64(pages))
		// The same number of page reads, through the pager alone.
		_, d, err = tr.timed("pager", getID, func() error { return p.readPages(li, pages, uint32(query*31+pi)) })
		if err != nil {
			return nil, false, total, err
		}
		sm.add("pager.read_page_ns", float64(d.Nanoseconds())/float64(max(pages, 1)))
		if blobs[pi] == nil {
			return nil, false, total, nil
		}
	}
	return blobs, true, total, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
