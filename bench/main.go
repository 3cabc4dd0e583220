// Command bench is the repository's benchmark (BENCHMARK.json at the
// root names it): it generates a seeded corpus, builds the index
// through si.Build, launches a real cmd/sisrv child on loopback with
// default flags, drives one of four workloads against it closed-loop,
// checks every answer, and prints every metric by name with its unit.
// With -trace 1 it instead replays the workload in-process with a span
// at every layer boundary and prints the per-layer metrics. README.md
// in this directory explains the workloads, the metrics and how they
// interact.
//
//	bash bench/run.sh -workload wh-full -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -workload fb-distinct -seed 1 -seconds 15 -trace 1 -out /tmp/run
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// metricDef declares a metric the benchmark emits; BENCHMARK.json
// carries the same list (the smoke test holds the two together).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEndMetrics = []metricDef{
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"bytes_per_tree", "B", "lower", 0.05},
}

// result is a run's last stdout line, the shape the driver reads.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of the -out directory's results.jsonl, the input
// of -compare: the run's arguments beside its result and its ungated
// figures.
type record struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Seconds  float64               `json:"seconds"`
	Trace    int                   `json:"trace"`
	Result   result                `json:"result"`
	Info     map[string]metricJSON `json:"info"`
}

func main() {
	name := flag.String("workload", "wh-full", "workload: wh-full, fb-distinct, topk-sharded or mixed-rw")
	seed := flag.Uint64("seed", 1, "drives corpus, query sampling, shuffles and the delete set")
	seconds := flag.Float64("seconds", 15, "length of the timed window (trace 0) or of the replay (trace 1)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics against a sisrv child; 1: per-layer metrics from an in-process traced replay")
	outDir := flag.String("out", "", "directory to keep results.jsonl, the query list and the span trace in (default: keep nothing)")
	sisrv := flag.String("sisrv", "", "prebuilt sisrv binary (default: go build it into the run's temp directory)")
	compare := flag.Bool("compare", false, "compare two results.jsonl files given as arguments instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results.jsonl files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}
	// Cancelling on a signal unwinds through the deferred clean-ups:
	// the sisrv child is stopped and its index directory removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, sz: fullSizes, sisrv: *sisrv, outDir: *outDir}
	rec, err := run(ctx, cfg, *trace)
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Println(string(line))
}

// run executes one benchmark run, prints its report and returns its
// record (also appended to the -out directory).
func run(ctx context.Context, cfg runConfig, trace int) (record, error) {
	mode := endToEnd
	if trace != 0 {
		mode = traced
	}
	out, err := mode(ctx, cfg)
	if err != nil {
		return record{}, err
	}
	rec := record{Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace,
		Result: result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricJSON{}},
		Info:   map[string]metricJSON{}}
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", cfg.w.name, cfg.seed, cfg.seconds, trace)
	for _, m := range out.metrics {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
		rec.Result.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	for _, m := range out.info {
		fmt.Printf("  %-34s %14.4f %s  (not gated)\n", m.name, m.value, m.unit)
		rec.Info[m.name] = metricJSON{m.value, m.unit}
	}
	for _, p := range out.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	if cfg.outDir != "" {
		f, err := os.OpenFile(filepath.Join(cfg.outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return rec, err
		}
		line, _ := json.Marshal(rec)
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return rec, err
		}
		if err := f.Close(); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
