// Command benchjson converts `go test -bench` text output into a JSON
// document, so CI can archive benchmark runs as machine-readable
// artifacts and track the perf trajectory across commits (the
// `make bench-json` target emits BENCH_search.json this way).
//
//	go test -run '^$' -bench Search -benchmem . | benchjson -o BENCH_search.json
//
// Standard benchmark lines parse into name, iteration count and a
// metric map keyed by unit (ns/op, B/op, allocs/op, plus any custom
// b.ReportMetric units such as fetches/op); header lines (goos,
// goarch, pkg, cpu) become document metadata. Unrecognized lines are
// ignored, so PASS/FAIL trailers and -v noise are harmless.
//
// With -baseline FILE the freshly parsed run is also diffed against a
// previously emitted document: for every benchmark present in both
// whose name matches -guard (a comma-separated list of substrings;
// default covers the limited-search, sharded-query, batch, planner-skew,
// join-layer, root-decode, subtree-extraction and B+Tree lookup
// benchmarks), the deterministic per-op
// metrics (fetches/op, joinrows/op, allocs/op and B/op) must not exceed
// the baseline by more than -tolerance (default 0.25, i.e. +25%), or
// the command exits non-zero — a counter whose baseline is 0 therefore
// fails on any increase. Wall-clock (ns/op) is never compared — it is
// the one metric too noisy across runners to gate on. The gate fails
// CLOSED: a baseline that loads but matches zero guarded counters
// (benchmarks renamed, -guard typo) is an error, not a silent pass, and
// so is any individual -guard item that gates zero counters while the
// others match; only a missing baseline file skips with a note.
// -write-baseline FILE emits, after a passing gate, a stripped document
// holding just the guarded counters — deterministic for a fixed corpus
// seed, so the committed baseline only changes when the gated numbers
// do.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// guardedMetrics are the per-op metrics stable enough to fail CI on:
// the work counters (fetches/op, joinrows/op, and counts/op — the
// stored-count reads of one plan) are exactly reproducible
// for a fixed corpus seed, and the allocation profile (allocs/op,
// B/op) is steady enough over the gate's 100 iterations (see the
// Makefile) that the tolerance absorbs pool warm-up jitter — gating
// it keeps the zero-copy read path from silently regrowing per-query
// garbage. Only ns/op stays
// informational (noisy across runners).
var guardedMetrics = []string{"fetches/op", "joinrows/op", "counts/op", "allocs/op", "B/op"}

// defaultGuard names the gated benchmark families: limited search (the
// early-termination counters), the sharded-query and batch paths whose
// allocation profile the zero-copy read path flattened, repeated counts
// served from the decoded-list memo (the same work counters as a cold
// pass, and the copy path's allocations), the planner's
// skewed-corpus fetch/join-row savings, a plan-map miss's stored-count
// reads and allocations, the join layer's own
// benchmarks (join rows at fixed input cardinalities and, for the
// stream's seek, at fixed gap lengths; the compiled kernel's
// allocations, constant in the input size for a stream), the
// root-split decoders' zero allocations, per entry and per block, and
// of their skip-table seek, the
// build's subtree extractor's zero allocations per tree, and the B+Tree
// lookup's (zero for any value on a mapped file, one copy on pread).
const defaultGuard = "LimitedSearch,ShardedQuery,SearchBatch,RepeatedCount,PlannerSkew,PlanMiss,JoinRun,JoinStream,StreamAlign,RootDecode,RootBlock,RootSkip,Extract,Get"

// guardItems splits a comma-separated guard list into its non-empty
// items (so a trailing comma is harmless).
func guardItems(guard string) []string {
	var items []string
	for _, g := range strings.Split(guard, ",") {
		if g != "" {
			items = append(items, g)
		}
	}
	return items
}

// matchesGuard reports whether a benchmark name matches any of the
// comma-separated guard substrings.
func matchesGuard(name, guard string) bool {
	for _, g := range guardItems(guard) {
		if strings.Contains(name, g) {
			return true
		}
	}
	return false
}

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark's full name, including sub-benchmark path
	// (e.g. "BenchmarkLimitedSearch/limit5").
	Name string `json:"name"`
	// Iterations is the b.N the reported metrics are averaged over.
	Iterations int `json:"iterations"`
	// Metrics maps a unit to its per-op value: ns/op, B/op, allocs/op,
	// and any custom units like fetches/op.
	Metrics map[string]float64 `json:"metrics"`
}

// Doc is the emitted JSON document.
type Doc struct {
	// GOOS, GOARCH, Pkg and CPU echo the benchmark run's header lines.
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Benchmarks holds one entry per benchmark result line, in input
	// order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline JSON to diff guarded counters against (missing file = skip, empty = no gate)")
	writeBaseline := flag.String("write-baseline", "", "write the stripped guarded-counter baseline here after a passing gate")
	guard := flag.String("guard", defaultGuard, "comma-separated substrings of benchmark names whose metrics are regression-gated")
	tolerance := flag.Float64("tolerance", 0.25, "allowed relative increase of guarded counters over the baseline")
	flag.Parse()
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	// Gate BEFORE writing anything: a failed gate must leave the
	// previous baseline in place, or rerunning would compare the
	// regressed run against itself and wave the regression through.
	if *baseline != "" {
		if err := diffBaseline(*baseline, doc, *guard, *tolerance); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: baseline left unchanged; accept an intentional change by raising -tolerance (or regenerate after a rename with an empty -baseline) for one run")
			fatal(err)
		}
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	if err != nil {
		fatal(err)
	}
	if *writeBaseline != "" {
		raw, err := json.MarshalIndent(stripBaseline(doc, *guard), "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*writeBaseline, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
}

// stripBaseline reduces a run to its regression-gated substance: the
// guarded benchmarks with only their guarded metrics. The work
// counters are deterministic for the fixed corpus seed and the
// allocation metrics are stable to within the gate's tolerance, so the
// stripped file does not churn on wall-clock noise — any significant
// diff in it is a real counter or allocation change.
func stripBaseline(doc *Doc, guard string) *Doc {
	out := &Doc{}
	for _, b := range doc.Benchmarks {
		if !matchesGuard(b.Name, guard) {
			continue
		}
		metrics := map[string]float64{}
		for _, m := range guardedMetrics {
			if v, ok := b.Metrics[m]; ok {
				metrics[m] = v
			}
		}
		if len(metrics) == 0 {
			continue
		}
		out.Benchmarks = append(out.Benchmarks, Benchmark{Name: b.Name, Iterations: b.Iterations, Metrics: metrics})
	}
	return out
}

// diffBaseline compares doc's guarded counters against a previously
// emitted JSON document, returning an error describing every
// regression beyond the tolerance. Individual benchmarks or metrics
// absent on one side are skipped, but a baseline that matches NOTHING
// fails, and so does any single guard item that gated no counter: a
// wholesale rename (or -guard typo) silently disarming the gate — or
// one family quietly dropping out of it — is exactly how protected
// counters rot, so those cases demand an explicit baseline
// regeneration instead of a green run.
func diffBaseline(path string, doc *Doc, guard string, tolerance float64) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "benchjson: no baseline at %s; skipping regression gate\n", path)
		return nil
	}
	if err != nil {
		return err
	}
	var base Doc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("corrupt baseline %s: %w", path, err)
	}
	prev := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		prev[b.Name] = b
	}
	var regressions []string
	compared := 0
	itemHits := make(map[string]int) // guard item -> counters it gated
	for _, b := range doc.Benchmarks {
		if !matchesGuard(b.Name, guard) {
			continue
		}
		old, ok := prev[b.Name]
		if !ok {
			continue
		}
		for _, metric := range guardedMetrics {
			cur, okCur := b.Metrics[metric]
			was, okWas := old.Metrics[metric]
			if !okCur || !okWas {
				continue
			}
			compared++
			for _, g := range guardItems(guard) {
				if strings.Contains(b.Name, g) {
					itemHits[g]++
				}
			}
			if cur > was*(1+tolerance) {
				regressions = append(regressions, fmt.Sprintf(
					"%s %s regressed: %.0f -> %.0f (>%+.0f%%)", b.Name, metric, was, cur, tolerance*100))
			}
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("perf regression vs %s:\n  %s", path, strings.Join(regressions, "\n  "))
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s matched no guarded counters (guard %q): the gate would be a no-op — regenerate the baseline after a benchmark rename", path, guard)
	}
	// A guard item gating zero counters is the same rot in miniature: one
	// renamed family silently dropping out of an otherwise-green gate.
	var dead []string
	for _, g := range guardItems(guard) {
		if itemHits[g] == 0 {
			dead = append(dead, g)
		}
	}
	if len(dead) > 0 {
		return fmt.Errorf("guard item(s) %q matched no counters in baseline %s: the family was renamed or the -guard item is a typo — fix the guard list or regenerate the baseline", strings.Join(dead, ","), path)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d guarded counters within %.0f%% of baseline\n", compared, tolerance*100)
	return nil
}

// parse reads benchmark text output into a Doc.
func parse(sc *bufio.Scanner) (*Doc, error) {
	doc := &Doc{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBench(line)
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	return doc, sc.Err()
}

// parseBench parses one "BenchmarkName-8  N  V unit  V unit ..." line.
func parseBench(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Benchmark{}, false
	}
	// Strip the trailing -GOMAXPROCS suffix from the name.
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
