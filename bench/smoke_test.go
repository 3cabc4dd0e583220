package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// toySizes runs every code path of the benchmark in about a second per
// workload.
var toySizes = sizes{corpus: 500, mixedInitial: 400, oracle: 200, held: 200,
	fbDistinct: 300, fbWarm: 40, appendTrees: 10, deleteTids: 8, setups: 1}

// benchmarkJSON is BENCHMARK.json's shape.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestSmoke runs each workload named in BENCHMARK.json at toy scale,
// end to end against a real sisrv child and traced in-process, and
// asserts the contract: every declared metric comes out with its unit,
// no op fails (so the oracle passed), and the span trace parses with
// consistent parent links.
func TestSmoke(t *testing.T) {
	decl := loadBenchmarkJSON(t)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	if len(decl.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the benchmark has %d", len(decl.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range decl.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, main.go has %+v", i, m, d)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	outDir := t.TempDir()
	sisrv, err := buildServer(ctx, outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, dw := range decl.Workloads {
		w, err := findWorkload(dw.Name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := runConfig{w: w, seed: 7, seconds: 1, sz: toySizes, sisrv: sisrv, outDir: outDir}
		t.Run(w.name+"/end-to-end", func(t *testing.T) {
			// Two seconds, so that a unit of mixed-rw's write schedule
			// (a 28th of the window) outlasts a scheduling hiccup.
			cfg := cfg
			cfg.seconds = 2
			rec, err := run(ctx, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
			}
			if len(rec.Result.Metrics) != len(decl.EndToEnd) {
				t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rec.Result.Metrics), len(decl.EndToEnd))
			}
			for _, m := range decl.EndToEnd {
				got, ok := rec.Result.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("metric %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
		})
		t.Run(w.name+"/traced", func(t *testing.T) {
			rec, err := run(ctx, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 {
				t.Errorf("correct=%v failed=%d", rec.Result.Correct, rec.Result.Failed)
			}
			if len(rec.Result.Metrics) != len(decl.PerLayer) {
				t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(rec.Result.Metrics), len(decl.PerLayer))
			}
			for _, m := range decl.PerLayer {
				if got, ok := rec.Result.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			checkTrace(t, filepath.Join(outDir, "trace-"+w.name+"-7.jsonl"))
		})
	}

	// The comparison tool on the runs just recorded: a file agrees
	// with itself, exact counts included.
	var report bytes.Buffer
	results := filepath.Join(outDir, "results.jsonl")
	if ok, err := compareFiles(&report, results, results); err != nil || !ok {
		t.Errorf("results.jsonl does not compare equal to itself (%v):\n%s", err, report.String())
	}
}

// checkTrace asserts the JSONL span dump parses, ids are dense, every
// parent exists, precedes nothing it did not cause (same query id), and
// the layer nesting is the documented one.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	parentOf := map[string]string{"server": "http", "core": "server", "query": "core", "planner": "core",
		"cover": "planner", "btree": "core", "pager": "btree"}
	for i, s := range spans {
		if s.ID != i+1 {
			t.Fatalf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Name == "http" {
			if s.Parent != 0 {
				t.Errorf("http span %d has parent %d", s.ID, s.Parent)
			}
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			t.Fatalf("span %d (%s) has dangling parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if p.Query != s.Query {
			t.Errorf("span %d (%s, query %d) hangs under query %d", s.ID, s.Name, s.Query, p.Query)
		}
		want, fixed := parentOf[s.Name]
		switch {
		case fixed && p.Name != want:
			t.Errorf("span %d: %s under %s, want %s", s.ID, s.Name, p.Name, want)
		case s.Name == "postings" && p.Name != "core" && p.Name != "join",
			s.Name == "join" && p.Name != "core":
			t.Errorf("span %d: %s under %s", s.ID, s.Name, p.Name)
		}
	}
}
