// Command sibuild constructs a Subtree Index over a bracketed corpus.
//
// Usage:
//
//	sibuild -corpus corpus.mrg -out idxdir -mss 3 -coding root-split
//
// With -gen N the corpus is generated in-process instead of read from
// a file, which makes end-to-end experiments one command. -shards N
// partitions the corpus by tid into N index shards built concurrently.
//
// With -append the trees are added to the existing index at -out as a
// fresh immutable segment instead of rebuilding it: the new trees get
// the tids following the current corpus, the index's mss and coding
// carry over (-mss and -coding are ignored), and a server already
// serving the directory picks the segment up with POST /reload —
// incremental ingest without rebuild or restart.
//
// With -delete the listed trees are tombstoned in the index at -out
// (no corpus input needed); with -compact the surviving trees of all
// segments are merged back into one segment and the tombstoned space
// is reclaimed. Both republish the manifest atomically, and a server
// serving the directory picks either up with POST /reload:
//
//	sibuild -out idxdir -delete 3,7,9
//	sibuild -out idxdir -compact
//
// See docs/SEGMENTS.md for the full segment lifecycle.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/postings"
	"repro/si"
)

func main() {
	corpus := flag.String("corpus", "", "bracketed corpus file (one tree per line)")
	gen := flag.Int("gen", 0, "generate this many synthetic trees instead of reading -corpus")
	seed := flag.Uint64("seed", 42, "seed for -gen")
	out := flag.String("out", "si-index", "output index directory")
	mss := flag.Int("mss", 3, "maximum subtree size (1..6)")
	codingName := flag.String("coding", "root-split", "posting coding: filter-based | root-split | subtree-interval")
	shards := flag.Int("shards", 1, "partition the index into N shards built concurrently")
	appendMode := flag.Bool("append", false, "append the trees to the existing index at -out as a new segment (keeps its mss/coding)")
	deleteTids := flag.String("delete", "", "tombstone these comma-separated tids in the existing index at -out (e.g. 3,7,9)")
	compactMode := flag.Bool("compact", false, "merge the existing index at -out into one segment, dropping tombstoned trees")
	flag.Parse()

	coding, err := postings.ParseCoding(*codingName)
	if err != nil {
		fatal(err)
	}

	if *deleteTids != "" || *compactMode {
		if *corpus != "" || *gen > 0 || *appendMode {
			fatal(fmt.Errorf("-delete/-compact modify the index at -out in place; drop -corpus/-gen/-append"))
		}
		mutate(*out, *deleteTids, *compactMode, *shards)
		return
	}
	var trees []*si.Tree
	switch {
	case *gen > 0:
		trees = si.GenerateCorpus(*seed, *gen)
	case *corpus != "":
		f, err := os.Open(*corpus)
		if err != nil {
			fatal(err)
		}
		trees, err = si.ReadTrees(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -corpus FILE or -gen N"))
	}

	if *appendMode {
		ix, err := si.Open(*out)
		if err != nil {
			fatal(err)
		}
		info, err := ix.AppendWith(context.Background(), trees,
			si.AppendOptions{Shards: *shards})
		if err != nil {
			ix.Close()
			fatal(err)
		}
		fmt.Printf("appended to %s: %d trees in new segment (%d keys, %d postings), %d segments at generation %d, %d trees total\n",
			*out, len(trees), info.Keys, info.Postings, ix.Segments(), ix.Generation(), ix.NumTrees())
		// The append is already committed; a close error is worth a
		// warning but must not fail the command, or retrying scripts
		// would ingest the corpus twice.
		if err := ix.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "sibuild: warning: closing index:", err)
		}
		return
	}

	info, err := si.Build(*out, trees, si.BuildOptions{
		MSS:    *mss,
		Coding: coding,
		Shards: *shards,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("built %s: %d trees, %d shards, %d keys, %d postings, index %d bytes, data %d bytes\n",
		*out, len(trees), info.Shards, info.Keys, info.Postings, info.IndexBytes, info.DataBytes)
}

// mutate runs the in-place modes: tombstone the -delete tids, then
// compact if -compact was set (so `-delete ... -compact` deletes and
// reclaims in one command).
func mutate(out, deleteTids string, compact bool, shards int) {
	ix, err := si.Open(out)
	if err != nil {
		fatal(err)
	}
	defer ix.Close()
	ctx := context.Background()
	if deleteTids != "" {
		tids, err := parseTids(deleteTids)
		if err != nil {
			fatal(err)
		}
		deleted, err := ix.Delete(ctx, tids...)
		if err != nil {
			fatal(err)
		}
		st := ix.Stats()
		fmt.Printf("deleted %d of %d trees in %s: %d live, %d tombstoned, generation %d\n",
			deleted, len(tids), out, st.LiveTrees, st.TombstonedTrees, ix.Generation())
	}
	if compact {
		compacted, err := ix.CompactWith(ctx, si.CompactOptions{Shards: shards})
		if err != nil {
			fatal(err)
		}
		if !compacted {
			fmt.Printf("nothing to compact in %s: 1 segment, no tombstones\n", out)
			return
		}
		st := ix.Stats()
		fmt.Printf("compacted %s: %d trees in 1 segment, %d bytes, generation %d\n",
			out, st.LiveTrees, st.SegmentBytes, ix.Generation())
	}
}

// parseTids parses the -delete argument: comma-separated decimal tids.
func parseTids(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	tids := make([]int, 0, len(parts))
	for _, p := range parts {
		tid, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -delete tid %q: want comma-separated integers like 3,7,9", p)
		}
		tids = append(tids, tid)
	}
	return tids, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sibuild:", err)
	os.Exit(1)
}
