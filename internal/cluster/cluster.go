// Package cluster is the distributed half of the serving tier: the
// remote Backend behind sirouter (server.Over(router, cfg) serves the
// same HTTP surface as a node, written once in internal/server) and
// the follower Sync that replicates a leader's published segments over
// the /manifest + /segment surface.
//
// The topology is static and declarative: the corpus is partitioned
// into groups in tid order (each group serves one contiguous tid
// range, exactly like one shard of a sharded index), and each group is
// a set of replica sisrv nodes serving identical corpora. The router
// runs the in-process leafSet execution over that topology with the
// helpers internal/core exports — core.Gather's consultation policy
// (lazy in-order groups for limited searches, every group at once for
// unlimited ones, counts and batches' requests) and the window rule,
// core.Merge for unary answers and core.Cut for the in-order stream —
// so a query through the router returns byte-identical matches, counts
// and truncation flags to the same query on a single sharded index
// with the same partition boundaries (asserted by the parity tests).
// Every node
// answer is checked before it is merged: a match outside the group's
// tid range or out of (tid, root) order is the replica's fault.
//
// Replica failures are absorbed three ways: a health loop polls
// /readyz and routes around not-ready nodes; unary subrequests are
// hedged — after the node's recent p95 latency a duplicate goes to the
// next replica and the first response wins, the loser cancelled — and
// failed over on transport errors, 5xx, 429 and invalid answers; and
// /stream subrequests resume on the next replica from the exact match
// offset already consumed (segments are immutable, so the resumed
// stream continues where the dead node stopped, and the client stream
// completes).
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Defaults for the zero values of Config.
const (
	// DefaultHealthEvery is how often each node's /readyz is polled.
	DefaultHealthEvery = 2 * time.Second
	// DefaultHedgeAfter is the hedge delay used until a node has enough
	// latency samples for a p95 estimate.
	DefaultHedgeAfter = 100 * time.Millisecond
)

// Config configures a Router. The query limits — match cap, batch
// cap, default deadline, admission — are the server.Config of the
// surface serving the router. Each group is asked for offset+limit
// matches, which a node clamps to its own cap, so even equal caps clip
// once offset > 0; a clipped group ends the merge and the answer is a
// valid prefix of the window, flagged truncated. Run nodes uncapped
// (-limit -1) for full windows.
type Config struct {
	// Groups is the node topology: one entry per tid-range partition in
	// serving (tid) order, each listing the URLs of the replicas that
	// serve that partition. See ParseNodes for the flag syntax.
	Groups [][]string
	// HealthEvery is the /readyz poll period. 0 means DefaultHealthEvery.
	HealthEvery time.Duration
	// HedgeAfter is the hedge delay used for a node until its latency
	// history can provide a p95 (and the floor below which the p95 is
	// never trusted to hedge sooner than). 0 means DefaultHedgeAfter;
	// negative disables hedging entirely (failover on error remains).
	HedgeAfter time.Duration
}

// normalize fills in defaults for zero fields.
func (c *Config) normalize() {
	if c.HealthEvery == 0 {
		c.HealthEvery = DefaultHealthEvery
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = DefaultHedgeAfter
	}
}

// ParseNodes parses the -nodes flag syntax into Config.Groups: groups
// are comma-separated in tid order, replicas within a group are
// pipe-separated. Example:
//
//	http://a:9101|http://b:9101,http://c:9102
//
// declares two tid-range groups, the first replicated on a and b.
func ParseNodes(spec string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(spec, ",") {
		g = strings.TrimSpace(g)
		if g == "" {
			continue
		}
		var replicas []string
		for _, n := range strings.Split(g, "|") {
			n = strings.TrimSpace(strings.TrimRight(strings.TrimSpace(n), "/"))
			if n == "" {
				continue
			}
			u, err := url.Parse(n)
			if err != nil || u.Scheme == "" || u.Host == "" {
				return nil, fmt.Errorf("cluster: bad node URL %q (want e.g. http://host:port)", n)
			}
			replicas = append(replicas, n)
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("cluster: empty replica group in %q", spec)
		}
		groups = append(groups, replicas)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("cluster: no nodes in %q", spec)
	}
	return groups, nil
}

// node is the router's view of one sisrv replica, updated by the
// health loop and the latency tracker.
type node struct {
	url string

	ready      atomic.Bool
	trees      atomic.Int64
	generation atomic.Int64

	lat latencyRing
}

// latencyRing keeps the most recent unary subrequest durations for one
// node; its p95 is the node's hedge deadline once warmed up.
type latencyRing struct {
	mu      sync.Mutex
	samples [64]time.Duration
	n       int // total recorded (can exceed len(samples))
}

// minHedgeSamples is how many latency samples a node needs before its
// p95 replaces the configured fallback hedge delay.
const minHedgeSamples = 8

// record folds one observed request duration into the ring.
func (l *latencyRing) record(d time.Duration) {
	l.mu.Lock()
	l.samples[l.n%len(l.samples)] = d
	l.n++
	l.mu.Unlock()
}

// p95 returns the 95th-percentile recent latency; ok is false until
// minHedgeSamples have been recorded.
func (l *latencyRing) p95() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < minHedgeSamples {
		return 0, false
	}
	k := min(l.n, len(l.samples))
	buf := make([]time.Duration, k)
	copy(buf, l.samples[:k])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[k*95/100], true
}

// Router is the server.Backend of sirouter: it scatter-gathers
// searches, counts, batches and streams over the node groups, merges
// their /stats, and reports the replica set's health.
type Router struct {
	cfg    Config
	groups [][]*node
	nodes  []*node // flattened, for the health loop and /stats
	client *http.Client
	stop   chan struct{}
	wg     sync.WaitGroup

	hedges    atomic.Uint64 // duplicate subrequests launched by the hedge timer
	failovers atomic.Uint64 // subrequest retries after a replica failure
}

// New builds a Router over cfg's topology, performs one synchronous
// health sweep so the replica set is usable immediately, and starts
// the background health loop. Close stops the loop.
func New(cfg Config) (*Router, error) {
	cfg.normalize()
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("cluster: no node groups configured")
	}
	// One pooled client issues every node subrequest; it has no global
	// timeout, because deadlines come from the request contexts.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}}
	r := &Router{cfg: cfg, client: client, stop: make(chan struct{})}
	for _, g := range cfg.Groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("cluster: empty replica group")
		}
		var ns []*node
		for _, u := range g {
			n := &node{url: u}
			ns = append(ns, n)
			r.nodes = append(r.nodes, n)
		}
		r.groups = append(r.groups, ns)
	}
	r.Refresh()
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// Close stops the health loop. In-flight routed requests are
// unaffected; the caller owns the http.Server above the handler.
func (r *Router) Close() {
	close(r.stop)
	r.wg.Wait()
}

// healthLoop polls every node's /readyz on the configured period.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.Refresh()
		}
	}
}

// Refresh probes every node's /readyz once, concurrently, updating
// readiness, tree counts and generations. The health loop calls it on
// a timer; tests (and New) call it directly for a deterministic sweep.
func (r *Router) Refresh() {
	var wg sync.WaitGroup
	for _, n := range r.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			r.probe(n)
		}(n)
	}
	wg.Wait()
}

// probe updates one node's health state from its /readyz.
func (r *Router) probe(n *node) {
	req, err := http.NewRequest(http.MethodGet, n.url+"/readyz", nil)
	if err != nil {
		n.ready.Store(false)
		return
	}
	// The probe must never hang the sweep: readiness answers are
	// in-memory on the node, so a bounded wait is generous.
	ctx, cancel := context.WithTimeout(req.Context(), r.cfg.HealthEvery)
	defer cancel()
	resp, err := r.client.Do(req.WithContext(ctx))
	if err != nil {
		n.ready.Store(false)
		return
	}
	defer resp.Body.Close()
	var ready server.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		n.ready.Store(false)
		return
	}
	// A draining node still reports its corpus size with a 503; keep
	// the trees for offset math but stop routing to it.
	n.trees.Store(int64(ready.Trees))
	n.generation.Store(int64(ready.Generation))
	n.ready.Store(resp.StatusCode == http.StatusOK && ready.Ready)
}

// layout snapshots every group's tree count and tid base offset: group
// i's local tids lie in [0, sizes[i]) and rebase to global tids by
// adding the total trees of groups before it — the same
// contiguous-partition arithmetic as shard offsets in a sharded index.
func (r *Router) layout() (sizes []int64, bases []uint32) {
	sizes = make([]int64, len(r.groups))
	bases = make([]uint32, len(r.groups))
	var sum int64
	for i, g := range r.groups {
		sizes[i] = groupTrees(g)
		bases[i] = uint32(sum)
		sum += sizes[i]
	}
	return sizes, bases
}

// groupTrees is the corpus size of one group: the tree count of its
// first replica with a known size (replicas serve identical corpora;
// a lagging follower is the operator's rollout problem, see
// docs/SEGMENTS.md).
func groupTrees(g []*node) int64 {
	for _, n := range g {
		if t := n.trees.Load(); t > 0 {
			return t
		}
	}
	return 0
}

// candidates orders one group's replicas for a subrequest: ready nodes
// first (in configured order), then the rest — so a group with every
// replica marked unready still gets one last-ditch attempt rather than
// an instant failure (the probe loop may simply not have seen the node
// come up yet).
func candidates(g []*node) []*node {
	out := make([]*node, 0, len(g))
	for _, n := range g {
		if n.ready.Load() {
			out = append(out, n)
		}
	}
	for _, n := range g {
		if !n.ready.Load() {
			out = append(out, n)
		}
	}
	return out
}

// hedgeDelay is how long to wait on a node before launching a hedge to
// the next replica: the node's recent p95 once warmed up (never below
// the configured floor), the configured fallback before that, and
// never for a negative configuration (hedging disabled).
func (r *Router) hedgeDelay(n *node) (time.Duration, bool) {
	if r.cfg.HedgeAfter < 0 {
		return 0, false
	}
	if p, ok := n.lat.p95(); ok {
		return max(p, r.cfg.HedgeAfter), true
	}
	return r.cfg.HedgeAfter, true
}
