package si_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/si"
)

// exampleDir returns a unique scratch directory (Example functions have
// no *testing.T, so os.MkdirTemp stands in for t.TempDir; a fixed path
// would collide between parallel test shards on CI).
func exampleDir() string {
	dir, err := os.MkdirTemp("", "si-example-*")
	if err != nil {
		log.Fatal(err)
	}
	return dir
}

// Example demonstrates the build-open-search cycle on a tiny corpus.
func Example() {
	dir := exampleDir()
	defer os.RemoveAll(dir)

	corpus := []string{
		"(ROOT (S (NP (DT The) (NNS agoutis)) (VP (VBZ are) (NP (NNS rodents)))))",
		"(ROOT (S (NP (DT A) (NN dog)) (VP (VBD barked))))",
		"(ROOT (S (NP (NNS Cats)) (VP (VBP sleep))))",
	}
	var trees []*si.Tree
	for i, src := range corpus {
		t, err := si.ParseTree(i, src)
		if err != nil {
			log.Fatal(err)
		}
		trees = append(trees, t)
	}
	if _, err := si.Build(dir, trees, si.DefaultBuildOptions()); err != nil {
		log.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()

	n, err := ix.Count(context.Background(), "NP(DT)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("NP with determiner:", n)

	n, err = ix.Count(context.Background(), "S(//NNS)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clauses containing a plural noun:", n)
	// Output:
	// NP with determiner: 2
	// clauses containing a plural noun: 2
}

// ExampleIndex_Search shows match structure — tree id plus the matched
// node, resolved back to the parse — consumed through the streaming
// All() iterator.
func ExampleIndex_Search() {
	dir := exampleDir()
	defer os.RemoveAll(dir)

	t, err := si.ParseTree(0, "(S (NP (NNS agoutis)) (VP (VBZ are) (NP (NNS rodents))))")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := si.Build(dir, []*si.Tree{t}, si.BuildOptions{MSS: 2, Coding: si.RootSplit}); err != nil {
		log.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()

	res, err := ix.Search(context.Background(), "NP(NNS)")
	if err != nil {
		log.Fatal(err)
	}
	for m, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		tree, err := ix.Tree(int(m.TID))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("tree %d node %d label %s\n", m.TID, m.Root, tree.Nodes[m.Root].Label)
	}
	// Output:
	// tree 0 node 1 label NP
	// tree 0 node 7 label NP
}

// ExampleIndex_SearchBatch shows serving-style evaluation: a page
// cache and plan cache at open time, then a whole batch of queries in
// one call, with shared posting fetches deduplicated across the batch.
func ExampleIndex_SearchBatch() {
	dir := exampleDir()
	defer os.RemoveAll(dir)

	if _, err := si.Build(dir, si.GenerateCorpus(42, 500), si.DefaultBuildOptions()); err != nil {
		log.Fatal(err)
	}
	ix, err := si.OpenWith(dir, si.OpenOptions{
		CacheSize: 1 << 20, // 1 MiB page cache per shard
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()

	queries := []string{"NP(DT)(NN)", "S(NP(DT)(NN))(VP)", "VP(VBZ)(NP(DT)(NN))"}
	results, err := ix.SearchBatch(context.Background(), queries)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("%s: %d matches\n", queries[i], r.Count)
	}
	fmt.Printf("shared covers made the batch cheaper: %v\n",
		ix.Stats().PostingFetches < 3*3) // 3 queries x 3 pieces each, fetched once apiece
	// Output:
	// NP(DT)(NN): 843 matches
	// S(NP(DT)(NN))(VP): 280 matches
	// VP(VBZ)(NP(DT)(NN)): 104 matches
	// shared covers made the batch cheaper: true
}

// ExampleParseQuery shows the accepted query syntax.
func ExampleParseQuery() {
	for _, src := range []string{
		"NP(DT)(NN)",
		"S(NP)(//PP(IN(of)))",
		"A/B//C",
	} {
		q, err := si.ParseQuery(src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s has %d nodes, descendant axis: %v\n", q, q.Size(), q.HasDescendantAxis())
	}
	// Output:
	// NP(DT)(NN) has 3 nodes, descendant axis: false
	// S(NP)(//PP(IN(of))) has 5 nodes, descendant axis: true
	// A(B(//C)) has 3 nodes, descendant axis: true
}
