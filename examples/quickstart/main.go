// Quickstart: build a small Subtree Index over a synthetic parsed
// corpus and run a few structural queries against it.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/si"
)

func main() {
	dir := filepath.Join(os.TempDir(), "si-quickstart")
	defer os.RemoveAll(dir)

	// 1. A corpus of parse trees. Real corpora load with si.ReadTrees;
	// here we generate a synthetic news-like one.
	trees := si.GenerateCorpus(42, 2000)
	fmt.Printf("corpus: %d parsed sentences\n", len(trees))
	fmt.Printf("first sentence parse:\n  %s\n\n", trees[0])

	// 2. Build the index: root-split coding, subtrees up to 3 nodes.
	info, err := si.Build(dir, trees, si.DefaultBuildOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d keys, %d postings, %d KiB on disk\n\n",
		info.Keys, info.Postings, info.IndexBytes/1024)

	// Open memory-maps the index files, so the operating system's page
	// cache keeps hot B+Tree pages in memory (the paper's setup: no
	// user-level cache). Repeated queries always reuse their compiled
	// plan.
	ix, err := si.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()

	// 3. Structural queries: children with (), descendants with //.
	for _, q := range []string{
		"NP(DT)(NN)",       // noun phrase with determiner and noun
		"VP(VBZ(is))",      // "is" as a present-tense verb
		"S(NP)(VP(//PP))",  // clause whose predicate contains a PP
		"NP(DT(the))(NNS)", // "the" + plural noun
	} {
		res, err := ix.Search(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %6d matches", q, res.Count)
		if len(res.Matches) > 0 {
			t, err := ix.Tree(int(res.Matches[0].TID))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("   e.g. tree %d: %.60s...", res.Matches[0].TID, t.String())
		}
		fmt.Println()
	}

	// 4. The same queries as one batch: queries are planned up front and
	// posting lists shared between them are fetched once — fewer disk
	// reads than four sequential searches (ix.Stats() proves it).
	before := ix.Stats().PostingFetches
	results, err := ix.SearchBatch(context.Background(), []string{
		"NP(DT)(NN)", "VP(VBZ(is))", "S(NP)(VP(//PP))", "NP(DT(the))(NNS)",
	})
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, r := range results {
		total += r.Count
	}
	fmt.Printf("\nbatch of 4 queries: %d total matches with %d posting fetches\n",
		total, ix.Stats().PostingFetches-before)

	// 5. Serving-style access: a bounded window of matches under a
	// deadline. The context cancels evaluation if it overruns, and on a
	// sharded index the limit stops posting fetches early.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := ix.Search(ctx, "NP(DT)(NN)", si.WithLimit(3), si.WithOffset(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst window of NP(DT)(NN) after offset 1 (truncated=%v):\n", res.Stats.Truncated)
	for m, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  tree %d node %d\n", m.TID, m.Root)
	}
}
