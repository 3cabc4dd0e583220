// Command sisrv serves a Subtree Index over HTTP: JSON endpoints
// /search, /stream (NDJSON), /count, /batch, /append, /delete,
// /compact, /reload, /healthz, /readyz and /stats over one long-lived
// index, so open/parse/decompose costs are amortized across requests.
// Every request evaluates under a context bounded by -timeout
// (requests may shorten it with ?timeout=).
//
// Serve an existing index directory:
//
//	sisrv -index idx -addr :8080 -cache 8388608 -timeout 10s
//
// Or build a throwaway demo index first (removed on exit):
//
//	sisrv -gen 10000 -seed 42 -shards 4
//
// Query it:
//
//	curl 'localhost:8080/search?q=NP(DT)(NN)&limit=3&offset=1'
//	curl 'localhost:8080/stream?q=NP(DT)(NN)&limit=1000'
//	curl -d '{"queries":["NP(DT)(NN)","S(//NN)"]}' localhost:8080/batch
//
// Ingest while serving — POST bracketed trees and they are searchable
// as soon as the call returns, with zero downtime (running queries
// finish on the segment set they started on):
//
//	curl --data-binary '(S (NP (NNS agoutis)) (VP (VBZ swim)))' localhost:8080/append
//
// Or append offline with `sibuild -append` and tell the server to pick
// the new segment up:
//
//	curl -X POST localhost:8080/reload
//
// Delete trees (they stop matching immediately; disk is reclaimed by
// the next compaction) and compact on demand:
//
//	curl -d '{"tids":[3,7]}' localhost:8080/delete
//	curl -X POST localhost:8080/compact
//
// Or let the server compact itself: -compact-every runs a background
// compaction whenever the segment count or the tombstoned-tree count
// reaches its threshold (-compact-min-segments, -compact-min-deleted),
// folding a stream of small appends and deletes back into one segment
// without interrupting queries. docs/SEGMENTS.md walks the whole
// lifecycle.
//
// For cluster serving (see cmd/sirouter and docs/ARCHITECTURE.md):
// -maxinflight bounds concurrent query evaluations, shedding the
// excess with 429 + Retry-After instead of queueing; -follow makes the
// node a read-only replica that pulls the leader's published segments
// over /manifest + /segment every -sync-every and reloads; and on
// SIGTERM the server flips /readyz to 503, then drains in-flight
// requests for up to -drain before exiting, so load balancers and
// routers take the node out of rotation without cutting active
// streams.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/si"
)

func main() {
	var sc serveConfig
	flag.StringVar(&sc.dir, "index", "", "index directory to serve (required unless -gen is set)")
	flag.StringVar(&sc.addr, "addr", ":8080", "listen address")
	flag.IntVar(&sc.gen, "gen", 0, "build a temporary index over this many synthetic trees instead of -index")
	flag.Uint64Var(&sc.seed, "seed", 42, "seed for -gen")
	flag.IntVar(&sc.mss, "mss", 3, "maximum subtree size for -gen (1..6)")
	flag.IntVar(&sc.shards, "shards", 1, "shard count for -gen")
	cache := flag.Int64("cache", 0, "LRU page cache bytes per index file (0 = uncached, the paper's setup; unused while mmap serves the file)")
	mmap := flag.Bool("mmap", true, "memory-map index files for zero-copy page reads (falls back to pread when mapping is unavailable)")
	flag.IntVar(&sc.limit, "limit", server.DefaultMaxMatches, "max matches returned per query (-1 = unlimited)")
	flag.IntVar(&sc.maxbatch, "maxbatch", server.DefaultMaxBatch, "max queries per /batch request")
	flag.Int64Var(&sc.maxappend, "maxappend", server.DefaultMaxAppendBody, "max /append body bytes (-1 = disable /append, /delete and /compact)")
	flag.IntVar(&sc.maxinflight, "maxinflight", 0, "max concurrently evaluating query requests; excess answered 429 + Retry-After without queueing (0 = unlimited)")
	flag.DurationVar(&sc.timeout, "timeout", 30*time.Second, "default per-request evaluation timeout; requests may shorten it with ?timeout= but never extend it (0 = none)")
	flag.DurationVar(&sc.drain, "drain", 10*time.Second, "graceful shutdown: how long to wait for in-flight requests after /readyz flips to 503")
	flag.StringVar(&sc.follow, "follow", "", "replicate this leader sisrv URL: pull its published segments via /manifest + /segment and reload (forces -maxappend -1)")
	flag.DurationVar(&sc.syncEvery, "sync-every", 5*time.Second, "how often a -follow node polls the leader for new segments")
	flag.DurationVar(&sc.compact.every, "compact-every", 0, "check compaction thresholds at this interval and compact in the background when one is met (0 = no background compaction)")
	flag.IntVar(&sc.compact.minSegments, "compact-min-segments", 4, "background compaction threshold: compact at this many segments")
	flag.IntVar(&sc.compact.minDeleted, "compact-min-deleted", 64, "background compaction threshold: compact at this many tombstoned trees")
	flag.Parse()

	sc.open = si.OpenOptions{CacheSize: *cache}
	if !*mmap {
		sc.open.Mmap = si.MmapOff
	}
	if err := run(sc); err != nil {
		log.Fatal(err)
	}
}

// serveConfig carries the parsed flags into run.
type serveConfig struct {
	dir, addr   string
	gen         int
	seed        uint64
	mss, shards int
	open        si.OpenOptions
	limit       int
	maxbatch    int
	maxappend   int64
	maxinflight int
	timeout     time.Duration
	drain       time.Duration
	follow      string
	syncEvery   time.Duration
	compact     compactConfig
}

// compactConfig drives the background compaction loop.
type compactConfig struct {
	every                   time.Duration
	minSegments, minDeleted int
}

// compactLoop checks the thresholds every cc.every and compacts when
// one is met, until ctx is cancelled. It runs concurrently with
// serving: Compact publishes atomically and running queries finish on
// the segment set they pinned, so no request observes the swap. A
// failed compaction is logged and retried at the next tick — the index
// keeps serving from its current segment set either way.
func compactLoop(ctx context.Context, ix *si.Index, cc compactConfig) {
	t := time.NewTicker(cc.every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		start := time.Now()
		compacted, err := ix.CompactWith(ctx, si.CompactOptions{
			MinSegments:   cc.minSegments,
			MinTombstones: cc.minDeleted,
		})
		switch {
		case err != nil && ctx.Err() != nil:
			return // shutdown raced the merge; not a failure
		case err != nil:
			log.Printf("background compaction failed (retrying next tick): %v", err)
		case compacted:
			st := ix.Stats()
			log.Printf("compacted to 1 segment: %d live trees, %d KiB, took %s",
				st.LiveTrees, st.SegmentBytes/1024, time.Since(start).Round(time.Millisecond))
		}
	}
}

// syncLoop polls the leader every sc.syncEvery, pulls new segments and
// reloads, until ctx is cancelled. A failed sync is logged and retried
// at the next tick; the node keeps serving whatever generation it has.
func syncLoop(ctx context.Context, ix *si.Index, sc serveConfig) {
	hc := &http.Client{}
	t := time.NewTicker(sc.syncEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		res, err := cluster.Sync(ctx, hc, sc.follow, sc.dir)
		if err != nil {
			if ctx.Err() == nil {
				log.Printf("sync from %s failed (retrying next tick): %v", sc.follow, err)
			}
			continue
		}
		if !res.Changed {
			continue
		}
		if _, err := ix.Reload(); err != nil {
			log.Printf("reload after sync failed: %v", err)
			continue
		}
		log.Printf("synced to generation %d from %s (%d segment(s) fetched), %d trees",
			res.Generation, sc.follow, res.Fetched, ix.NumTrees())
		if err := cluster.RemoveStaleSegments(sc.dir, res.Segments); err != nil {
			log.Printf("stale segment cleanup: %v", err)
		}
	}
}

// initialSync blocks until the first successful pull from the leader
// (retrying every sc.syncEvery), so a brand-new follower has an index
// to open before it starts listening.
func initialSync(ctx context.Context, sc serveConfig) error {
	hc := &http.Client{}
	for {
		res, err := cluster.Sync(ctx, hc, sc.follow, sc.dir)
		if err == nil {
			log.Printf("following %s at generation %d (%d segment(s) fetched)",
				sc.follow, res.Generation, res.Fetched)
			return nil
		}
		log.Printf("initial sync from %s failed (retrying in %s): %v", sc.follow, sc.syncEvery, err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sc.syncEvery):
		}
	}
}

// run builds, opens or replicates the index and serves it until
// SIGINT/SIGTERM, then drains gracefully.
func run(sc serveConfig) error {
	if sc.dir == "" && sc.gen == 0 {
		return errors.New("sisrv: set -index to serve an existing index, or -gen N to build a demo index")
	}
	if sc.follow != "" && sc.dir == "" {
		return errors.New("sisrv: -follow needs -index (the local replica directory)")
	}
	if sc.dir == "" {
		tmp, err := os.MkdirTemp("", "sisrv-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		sc.dir = tmp
		log.Printf("building demo index: %d trees, seed %d, mss %d, %d shard(s)", sc.gen, sc.seed, sc.mss, sc.shards)
		info, err := si.Build(sc.dir, si.GenerateCorpus(sc.seed, sc.gen), si.BuildOptions{
			MSS: sc.mss, Coding: si.RootSplit, Shards: sc.shards,
		})
		if err != nil {
			return err
		}
		log.Printf("built: %d keys, %d postings, %d KiB index", info.Keys, info.Postings, info.IndexBytes/1024)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if sc.follow != "" {
		// A follower is a read-only replica: its segment set belongs to
		// the leader, so the local mutation surface would only diverge
		// the two — disable it.
		sc.maxappend = -1
		if err := initialSync(ctx, sc); err != nil {
			return fmt.Errorf("sisrv: initial sync: %w", err)
		}
	}

	ix, err := si.OpenWith(sc.dir, sc.open)
	if err != nil {
		return err
	}
	defer ix.Close()
	log.Printf("serving %s: %d trees, %d shard(s), mss %d, %s coding",
		sc.dir, ix.NumTrees(), ix.Shards(), ix.MSS(), ix.Coding())

	h := server.New(ix, server.Config{
		MaxMatches:    sc.limit,
		MaxBatch:      sc.maxbatch,
		MaxAppendBody: sc.maxappend,
		MaxInflight:   sc.maxinflight,
		Timeout:       sc.timeout,
		Dir:           sc.dir,
	})

	// The evaluation timeout flows to per-request contexts through
	// server.Config; the http.Server write timeout is derived from it
	// with headroom to serialize the response, so the connection
	// deadline never fires before the evaluation deadline has had its
	// chance to produce a clean 504. -timeout 0 means no deadline at
	// either level: the write timeout is disabled too, or a >60s
	// evaluation would have its connection severed mid-response.
	writeTimeout := time.Duration(0)
	if sc.timeout > 0 {
		writeTimeout = sc.timeout + 30*time.Second
		if writeTimeout < 60*time.Second {
			writeTimeout = 60 * time.Second
		}
	}
	srv := &http.Server{
		Addr:              sc.addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
	}

	if sc.compact.every > 0 {
		log.Printf("background compaction: every %s at >=%d segments or >=%d deleted trees",
			sc.compact.every, sc.compact.minSegments, sc.compact.minDeleted)
		compactDone := make(chan struct{})
		go func() {
			defer close(compactDone)
			compactLoop(ctx, ix, sc.compact)
		}()
		// The loop must drain before the deferred ix.Close: a compaction
		// in flight during shutdown still holds the index.
		defer func() { stop(); <-compactDone }()
	}
	if sc.follow != "" {
		syncDone := make(chan struct{})
		go func() {
			defer close(syncDone)
			syncLoop(ctx, ix, sc)
		}()
		defer func() { stop(); <-syncDone }()
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", sc.addr)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful drain: flip /readyz to 503 first so routers and load
		// balancers stop sending work, then let Shutdown wait for
		// in-flight requests (active streams included) up to -drain.
		log.Printf("shutting down: draining for up to %s", sc.drain)
		h.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), sc.drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("sisrv: shutdown: %w", err)
		}
		return nil
	}
}
