package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseBenchOutput feeds a realistic -bench/-benchmem transcript
// through the parser and checks names, metadata and metric values,
// including a custom b.ReportMetric unit.
func TestParseBenchOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkLimitedSearch/unlimited-8         	       1	    962193 ns/op	         4.000 fetches/op	 1578984 B/op	    7091 allocs/op
BenchmarkLimitedSearch/limit5-8            	       1	    244910 ns/op	         1.000 fetches/op	  410184 B/op	    1775 allocs/op
BenchmarkCountOnly/count-8                 	     100	   1074035 ns/op
PASS
ok  	repro	2.324s
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Pkg != "repro" || doc.CPU == "" {
		t.Fatalf("metadata: %+v", doc)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkLimitedSearch/unlimited" || b.Iterations != 1 {
		t.Fatalf("first benchmark: %+v", b)
	}
	if b.Metrics["ns/op"] != 962193 || b.Metrics["fetches/op"] != 4 || b.Metrics["allocs/op"] != 7091 {
		t.Fatalf("first metrics: %+v", b.Metrics)
	}
	last := doc.Benchmarks[2]
	if last.Name != "BenchmarkCountOnly/count" || last.Iterations != 100 || last.Metrics["ns/op"] != 1074035 {
		t.Fatalf("last benchmark: %+v", last)
	}
}

// baselineDoc builds a Doc with one guarded benchmark carrying the
// given fetch count.
func baselineDoc(fetches float64) *Doc {
	return &Doc{Benchmarks: []Benchmark{
		{Name: "BenchmarkLimitedSearch/limit5/shards=4", Iterations: 1,
			Metrics: map[string]float64{"fetches/op": fetches, "ns/op": 123456}},
		{Name: "BenchmarkCountOnly/count", Iterations: 1,
			Metrics: map[string]float64{"ns/op": 99}},
	}}
}

// writeDoc marshals a Doc to a temp file and returns its path.
func writeDoc(t *testing.T, doc *Doc) string {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffBaseline exercises the CI regression gate: guarded counters
// within tolerance pass, beyond it fail with a named benchmark, and
// ns/op noise is never compared.
func TestDiffBaseline(t *testing.T) {
	base := writeDoc(t, baselineDoc(4))

	within := baselineDoc(5) // 4 -> 5 = +25%, exactly at the bound
	within.Benchmarks[0].Metrics["ns/op"] = 10 * 123456
	if err := diffBaseline(base, within, "LimitedSearch", 0.25); err != nil {
		t.Fatalf("within-tolerance run failed the gate: %v", err)
	}

	beyond := baselineDoc(6) // +50%
	err := diffBaseline(base, beyond, "LimitedSearch", 0.25)
	if err == nil {
		t.Fatal("a +50% fetch regression passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkLimitedSearch/limit5/shards=4") ||
		!strings.Contains(err.Error(), "fetches/op") {
		t.Fatalf("regression report names neither benchmark nor metric: %v", err)
	}

	// An unguarded benchmark regressing is not this gate's business.
	unguarded := baselineDoc(4)
	unguarded.Benchmarks[1].Metrics["ns/op"] = 1e9
	if err := diffBaseline(base, unguarded, "LimitedSearch", 0.25); err != nil {
		t.Fatalf("unguarded change failed the gate: %v", err)
	}
}

// TestDiffBaselineFailsClosed asserts the gate's degradation modes: a
// missing baseline file skips (first run of a fresh setup), but a
// baseline that loads and matches nothing — a wholesale rename or a
// -guard typo — errors rather than silently disarming the gate.
func TestDiffBaselineFailsClosed(t *testing.T) {
	if err := diffBaseline(filepath.Join(t.TempDir(), "nope.json"), baselineDoc(4), "LimitedSearch", 0.25); err != nil {
		t.Fatalf("missing baseline failed the gate: %v", err)
	}
	base := writeDoc(t, baselineDoc(4))
	renamed := &Doc{Benchmarks: []Benchmark{{
		Name: "BenchmarkLimitedSearchV2/limit5", Iterations: 1,
		Metrics: map[string]float64{"fetches/op": 1000},
	}}}
	if err := diffBaseline(base, renamed, "LimitedSearch", 0.25); err == nil {
		t.Fatal("a baseline matching zero guarded counters passed the gate as a no-op")
	}
	if err := diffBaseline(base, baselineDoc(4), "LimitedSaerch", 0.25); err == nil {
		t.Fatal("a -guard typo disarmed the gate silently")
	}
}

// TestDiffBaselineDeadGuardItem asserts the per-item half of the
// fail-closed contract: when one -guard item gates counters but
// another matches nothing (one family renamed, or a typo in a
// multi-item list), the gate errors naming the dead item instead of
// passing on the families that still match.
func TestDiffBaselineDeadGuardItem(t *testing.T) {
	base := writeDoc(t, baselineDoc(4))
	err := diffBaseline(base, baselineDoc(4), "LimitedSearch,PlannerSkew", 0.25)
	if err == nil {
		t.Fatal("a guard item matching zero counters passed the gate")
	}
	if !strings.Contains(err.Error(), "PlannerSkew") {
		t.Fatalf("error does not name the dead guard item: %v", err)
	}
	if strings.Contains(err.Error(), "LimitedSearch,PlannerSkew\" matched no") {
		t.Fatalf("error blames the whole guard list, not the dead item: %v", err)
	}
	// Both items gating counters passes.
	two := baselineDoc(4)
	two.Benchmarks = append(two.Benchmarks, Benchmark{
		Name: "BenchmarkPlannerSkew/cost", Iterations: 1,
		Metrics: map[string]float64{"fetches/op": 2},
	})
	baseTwo := writeDoc(t, two)
	if err := diffBaseline(baseTwo, two, "LimitedSearch,PlannerSkew", 0.25); err != nil {
		t.Fatalf("fully matched multi-item guard failed the gate: %v", err)
	}
}

// TestDiffBaselineAllocs asserts the allocation gate: allocs/op and
// B/op regressions beyond tolerance fail, so the zero-copy read path
// cannot silently regrow per-query garbage.
func TestDiffBaselineAllocs(t *testing.T) {
	mk := func(allocs, bytes float64) *Doc {
		return &Doc{Benchmarks: []Benchmark{{
			Name: "BenchmarkShardedQuery/shards=4", Iterations: 1,
			Metrics: map[string]float64{"allocs/op": allocs, "B/op": bytes, "ns/op": 1},
		}}}
	}
	// Guard only the family the fixture contains: under the per-item
	// fail-closed rule, the full defaultGuard would (correctly) error on
	// its other families matching nothing here.
	base := writeDoc(t, mk(800, 7_000_000))
	if err := diffBaseline(base, mk(900, 7_500_000), "ShardedQuery", 0.25); err != nil {
		t.Fatalf("within-tolerance alloc drift failed the gate: %v", err)
	}
	err := diffBaseline(base, mk(40_000, 7_000_000), "ShardedQuery", 0.25)
	if err == nil {
		t.Fatal("a 50x allocs/op regression passed the gate")
	}
	if !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("regression report does not name allocs/op: %v", err)
	}
	if err := diffBaseline(base, mk(800, 12_000_000), "ShardedQuery", 0.25); err == nil {
		t.Fatal("a +71%% B/op regression passed the gate")
	}
	// A baseline of zero is a counter like any other: it stays green at
	// zero — and keeps its guard item alive while doing so — and any
	// increase fails, naming the counter.
	zero := writeDoc(t, mk(0, 0))
	if err := diffBaseline(zero, mk(0, 0), "ShardedQuery", 0.25); err != nil {
		t.Fatalf("zero counters holding at zero failed the gate: %v", err)
	}
	err = diffBaseline(zero, mk(3, 0), "ShardedQuery", 0.25)
	if err == nil {
		t.Fatal("allocs/op regressing 0 -> 3 passed the gate")
	}
	if !strings.Contains(err.Error(), "BenchmarkShardedQuery/shards=4 allocs/op regressed: 0 -> 3") {
		t.Fatalf("regression report does not name the zero-baseline counter: %v", err)
	}
}

// TestMatchesGuard asserts the comma-separated guard list: every named
// family matches, unrelated benchmarks do not, and a single-substring
// guard still behaves as before.
func TestMatchesGuard(t *testing.T) {
	for _, name := range []string{
		"BenchmarkLimitedSearch/limit5/shards=4",
		"BenchmarkShardedQuery/shards=2",
		"BenchmarkSearchBatch/shards=1",
		"BenchmarkRootDecode",
		"BenchmarkRootBlock/real/block",
		"BenchmarkStreamAlign/gap=64",
	} {
		if !matchesGuard(name, defaultGuard) {
			t.Fatalf("default guard misses %s", name)
		}
	}
	if matchesGuard("BenchmarkCountOnly/count", defaultGuard) {
		t.Fatal("default guard matches an ungated benchmark")
	}
	if !matchesGuard("BenchmarkLimitedSearch/limit5", "LimitedSearch") {
		t.Fatal("single-substring guard broke")
	}
	if matchesGuard("BenchmarkAnything", "") {
		t.Fatal("empty guard matches everything")
	}
}

// TestStripBaseline asserts the committed baseline form: guarded
// benchmarks only, guarded counters only — no wall-clock noise that
// would churn the committed file across machines.
func TestStripBaseline(t *testing.T) {
	doc := baselineDoc(4)
	doc.GOOS, doc.CPU = "linux", "Some CPU @ 2.10GHz"
	doc.Benchmarks[0].Metrics["joinrows/op"] = 99
	stripped := stripBaseline(doc, "LimitedSearch")
	if len(stripped.Benchmarks) != 1 {
		t.Fatalf("stripped %d benchmarks, want the 1 guarded one", len(stripped.Benchmarks))
	}
	b := stripped.Benchmarks[0]
	if b.Name != "BenchmarkLimitedSearch/limit5/shards=4" {
		t.Fatalf("kept %q", b.Name)
	}
	if len(b.Metrics) != 2 || b.Metrics["fetches/op"] != 4 || b.Metrics["joinrows/op"] != 99 {
		t.Fatalf("stripped metrics %v, want only the guarded counters", b.Metrics)
	}
	if stripped.GOOS != "" || stripped.CPU != "" {
		t.Fatalf("stripped doc kept machine metadata: %+v", stripped)
	}
}

// TestParseBenchGarbage asserts malformed lines are skipped, not
// misparsed.
func TestParseBenchGarbage(t *testing.T) {
	const out = `BenchmarkBroken 12
Benchmark 1 2 ns/op trailing
BenchmarkOK-4 	 200 	 50 ns/op
`
	doc, err := parse(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Name != "BenchmarkOK" {
		t.Fatalf("benchmarks: %+v", doc.Benchmarks)
	}
}
