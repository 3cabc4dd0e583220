// Command siquery evaluates tree queries against a built Subtree Index.
//
// Usage:
//
//	siquery -index idxdir 'VP(VBZ(is))(NP(DT(a))(NN))'
//	siquery -index idxdir -show 3 'S(//NN(rodent))'
//	siquery -index idxdir -limit 10 -offset 20 -timeout 2s 'NP(DT)(NN)'
//	siquery -index idxdir -count 'S(//NN)'
//	siquery -index idxdir -explain 'S(//NN)(//RB)'
//	siquery -index idxdir -info
//
// Each positional argument is one query; -show N prints the first N
// matching trees in bracketed form. -limit/-offset select a window of
// matches (on a sharded index a limited query stops fetching postings
// early), -timeout bounds each query's evaluation, and -count asks
// only for the exact match count through the allocation-free path.
// -explain additionally prints how the query was planned and executed:
// the strategy, the estimated match cardinality, and each cover
// piece's key with its estimated vs. actually decoded posting entries.
// On a root-split index a piece's key may be wider than the cover
// piece: the planner widens it, on the same root, to the query subtree
// of at most MSS nodes with the fewest stored postings. -info prints
// the index's segment state (segments, generation, live and tombstoned
// tree counts) instead of running queries — the offline equivalent of
// sisrv's /stats index section.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/si"
)

func main() {
	dir := flag.String("index", "si-index", "index directory")
	show := flag.Int("show", 0, "print up to N matching trees per query")
	limit := flag.Int("limit", 0, "return at most N matches per query (0 = all)")
	offset := flag.Int("offset", 0, "skip the first N matches per query")
	timeout := flag.Duration("timeout", 0, "per-query evaluation timeout (0 = none)")
	count := flag.Bool("count", false, "print only exact match counts (count-only path)")
	explain := flag.Bool("explain", false, "print the planner's strategy and per-piece key (root-split keys may be wider than the cover's pieces) with estimated vs. actual cardinality")
	info := flag.Bool("info", false, "print the index's segment state instead of running queries")
	flag.Parse()
	if flag.NArg() == 0 && !*info {
		fmt.Fprintln(os.Stderr, "usage: siquery -index DIR QUERY... | siquery -index DIR -info")
		os.Exit(2)
	}
	ix, err := si.Open(*dir)
	if err != nil {
		fatal(err)
	}
	defer ix.Close()
	if *info {
		printInfo(ix)
	}
	for _, src := range flag.Args() {
		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		err := runQuery(ctx, ix, src, *limit, *offset, *show, *count, *explain)
		cancel()
		if err != nil {
			fatal(err)
		}
	}
}

// printInfo prints the index's segment state: the corpus split into
// live and tombstoned trees, the segment fan-out, and the manifest
// generation.
func printInfo(ix *si.Index) {
	st := ix.Stats()
	bi := ix.Info()
	fmt.Printf("%d trees (%d live, %d tombstoned), %d segment(s), %d shard(s), generation %d\n",
		ix.NumTrees(), st.LiveTrees, st.TombstonedTrees, ix.Segments(), ix.Shards(), ix.Generation())
	fmt.Printf("mss %d, %s coding, %d keys, %d postings, index %d bytes, data %d bytes\n",
		ix.MSS(), ix.Coding(), bi.Keys, bi.Postings, bi.IndexBytes, bi.DataBytes)
}

// runQuery evaluates one query under ctx and prints its result.
func runQuery(ctx context.Context, ix *si.Index, src string, limit, offset, show int, countOnly, explain bool) error {
	start := time.Now()
	if countOnly && !explain {
		n, err := ix.Count(ctx, src)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d matches in %v\n", src, n, time.Since(start).Round(time.Microsecond))
		return nil
	}
	var opts []si.SearchOption
	if limit > 0 {
		opts = append(opts, si.WithLimit(limit))
	}
	if offset > 0 {
		opts = append(opts, si.WithOffset(offset))
	}
	if countOnly {
		opts = append(opts, si.WithCountOnly())
	}
	if explain {
		opts = append(opts, si.WithExplain())
	}
	res, err := ix.Search(ctx, src, opts...)
	if err != nil {
		return err
	}
	suffix := ""
	if res.Stats.Truncated {
		suffix = "+" // a limit stopped evaluation early; the count is a lower bound
	}
	fmt.Printf("%s: %d%s matches in %v (%d returned, %d shard(s), %d fetches)\n",
		src, res.Count, suffix, time.Since(start).Round(time.Microsecond),
		len(res.Matches), res.Stats.ShardsConsulted, res.Stats.PostingFetches)
	if explain {
		printExplain(res.Stats)
	}
	shown := 0
	for m, err := range res.All() {
		if err != nil {
			return err
		}
		if shown >= show {
			break
		}
		shown++
		t, err := ix.Tree(int(m.TID))
		if err != nil {
			return err
		}
		fmt.Printf("  tree %d @ node %d: %s\n", m.TID, m.Root, t)
	}
	return nil
}

// printExplain prints the planner's view of one executed query: the
// strategy, the plan-time match estimate (the smallest piece count),
// and each cover piece's key — widened on root-split — with its stored
// vs. actually decoded posting entries.
func printExplain(st si.SearchStats) {
	fmt.Printf("  plan: strategy=%s estimated_rows=%d\n", st.Strategy, st.EstimatedRows)
	for _, p := range st.Pieces {
		fmt.Printf("  piece %-24q est=%-8d actual=%d\n", p.Key, p.Est, p.Actual)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "siquery:", err)
	os.Exit(1)
}
