// Command sigen generates a synthetic parsed news corpus in bracketed
// format, one tree per line — the stand-in for the AQUAINT corpus
// parsed with the Stanford parser (TestCorpusShape in internal/corpusgen
// holds it to the structural statistics the paper reports).
//
// Usage:
//
//	sigen -n 10000 -seed 42 -o corpus.mrg
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/si"
)

func main() {
	n := flag.Int("n", 1000, "number of sentences (trees) to generate")
	seed := flag.Uint64("seed", 42, "corpus seed; same seed, same corpus")
	out := flag.String("o", "-", "output file ('-' = stdout)")
	stats := flag.Bool("stats", false, "print corpus statistics to stderr")
	flag.Parse()

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	nodes := 0
	for _, t := range si.GenerateCorpus(*seed, *n) {
		if err := si.WriteTree(bw, t); err != nil {
			fatal(err)
		}
		nodes += t.Size()
	}
	if err := bw.Flush(); err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "sigen: %d trees, %d nodes (%.1f avg)\n",
			*n, nodes, float64(nodes)/float64(*n))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sigen:", err)
	os.Exit(1)
}
