// Command sirouter serves a Subtree Index cluster through the same
// HTTP surface as sisrv (internal/server over a cluster.Router
// backend): it scatter-gathers /search, /count, /batch and /stream
// over a static set of sisrv node groups (each group one contiguous
// tid-range of the corpus, each group a set of identical replicas),
// merging results with the exact window and truncation semantics of a
// single sharded sisrv over the same corpus. /stats merges every
// node's stats into a cluster view; /healthz and /readyz report the
// replica set, and on SIGTERM /readyz turns 503 while in-flight
// requests drain for up to -drain, exactly as on a node.
//
// Topology is declarative: groups are comma-separated in tid order,
// replicas pipe-separated within a group —
//
//	sirouter -addr :9000 -nodes 'http://a:9101|http://b:9101,http://c:9102'
//
// declares two tid-range partitions, the first served by replicas a
// and b. Query the router exactly like a node:
//
//	curl 'localhost:9000/search?q=NP(DT)(NN)&limit=3&offset=1'
//	curl 'localhost:9000/stream?q=NP(DT)(NN)&limit=1000'
//	curl -d '{"queries":["NP(DT)(NN)","S(//NN)"]}' localhost:9000/batch
//
// A health loop polls every node's /readyz on -health-every and routes
// around not-ready replicas. Unary subrequests are hedged: when a
// replica has not answered within its recent p95 latency (or
// -hedge-after before enough history exists), a duplicate goes to the
// next replica and the first answer wins, the loser cancelled.
// /stream subrequests fail over with offset resume: if a replica dies
// mid-stream, the next replica continues from the exact match the dead
// one stopped at and the client stream completes.
//
// Each group is asked for offset+limit matches, which a node clamps to
// its own -limit, so even equal caps clip once offset > 0. A clipped
// group ends the merge: the answer is a valid prefix of the window,
// flagged truncated. Run nodes with -limit -1 for full windows.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":9000", "listen address")
	nodes := flag.String("nodes", "", "node topology: comma-separated tid-range groups of pipe-separated replica URLs, e.g. 'http://a:9101|http://b:9101,http://c:9102'")
	limit := flag.Int("limit", server.DefaultMaxMatches, "max matches returned per routed query (-1 = unlimited); nodes clamp the offset+limit each group is asked for to their own -limit, and a clipped group ends the answer as a truncated prefix, so run nodes with -limit -1 for full windows")
	maxbatch := flag.Int("maxbatch", server.DefaultMaxBatch, "max queries per /batch request")
	timeout := flag.Duration("timeout", 30*time.Second, "default end-to-end deadline per routed request; requests may shorten it with ?timeout= (0 = none)")
	healthEvery := flag.Duration("health-every", cluster.DefaultHealthEvery, "how often each node's /readyz is polled")
	hedgeAfter := flag.Duration("hedge-after", cluster.DefaultHedgeAfter, "hedge a unary subrequest to the next replica after this long, until the node's p95 latency takes over (negative = never hedge)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown: how long to wait for in-flight requests after /readyz flips to 503")
	flag.Parse()

	if *nodes == "" {
		log.Fatal("sirouter: set -nodes (e.g. -nodes 'http://a:9101,http://b:9102')")
	}
	groups, err := cluster.ParseNodes(*nodes)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := cluster.New(cluster.Config{Groups: groups, HealthEvery: *healthEvery, HedgeAfter: *hedgeAfter})
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	log.Printf("routing %d group(s) over %d node(s)", len(groups), total)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	h := server.Over(rt, server.Config{MaxMatches: *limit, MaxBatch: *maxbatch, Timeout: *timeout})
	err = h.ListenAndServe(ctx, *addr, *drain)
	stop()
	rt.Close()
	if err != nil {
		log.Fatal(err)
	}
}
