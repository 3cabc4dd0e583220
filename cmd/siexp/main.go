// Command siexp regenerates the paper's tables and figures.
//
// Usage:
//
//	siexp -list
//	siexp -exp tab3
//	siexp -exp all -scale 1
//
// Output is a text table per experiment, with a note recalling the
// shape the paper reports. Absolute numbers depend on the machine and
// the synthetic corpus; runs are reproduced with siexp -exp all.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	exp := flag.String("exp", "all", "experiment id (fig2..fig13, tab1..tab3) or 'all'")
	scale := flag.Int("scale", 1, "corpus scale multiplier (1 = laptop, 10 = closer to paper)")
	seed := flag.Uint64("seed", 2012, "corpus seed")
	work := flag.String("work", "", "work directory for index builds (default: temp)")
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-7s %s\n", r.ID, r.Title)
		}
		return
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, WorkDir: *work}
	var runners []experiments.Runner
	if *exp == "all" {
		runners = experiments.All()
	} else {
		r, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "siexp: unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}
	for _, r := range runners {
		start := time.Now()
		res, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "siexp: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Println(res.Format())
		fmt.Printf("(%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
