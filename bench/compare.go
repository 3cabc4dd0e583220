package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// exactCounts are the figures two runs of one commit on one seed must
// reproduce digit for digit: they count work, not time.
var exactCounts = []string{"bytes_per_tree", "core.posting_fetches", "join.rows", "postings.entries_decoded"}

func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// fileSummary groups a file's runs: every value per (workload, metric),
// failed ops per workload, and the seeds each workload ran on.
type fileSummary struct {
	values map[[2]string][]float64
	failed map[string]int
	seeds  map[string]map[uint64]bool
}

func summarize(recs []record) fileSummary {
	s := fileSummary{map[[2]string][]float64{}, map[string]int{}, map[string]map[uint64]bool{}}
	for _, r := range recs {
		s.failed[r.Workload] += r.Result.Failed
		if s.seeds[r.Workload] == nil {
			s.seeds[r.Workload] = map[uint64]bool{}
		}
		s.seeds[r.Workload][r.Seed] = true
		for name, m := range r.Result.Metrics {
			k := [2]string{r.Workload, name}
			s.values[k] = append(s.values[k], m.Value)
		}
	}
	return s
}

func (s fileSummary) median(workload, name string) (float64, bool) {
	v := s.values[[2]string{workload, name}]
	return median(v), len(v) > 0
}

// compareFiles prints, per workload and end-to-end metric, how much
// worse b's median is than a's against the metric's bound, checks the
// exact counts for equality when both files ran the workload on one
// and the same seed, and reports whether everything held.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	recsA, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	a, b := summarize(recsA), summarize(recsB)
	ok := true
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range workloads {
		for _, def := range endToEndMetrics {
			va, okA := a.median(wl.name, def.name)
			vb, okB := b.median(wl.name, def.name)
			if !okA || !okB {
				continue
			}
			worse := (vb - va) / va
			if def.better == "higher" {
				worse = (va - vb) / va
			}
			verdict := ""
			if worse > def.bound {
				verdict, ok = "  BEYOND BOUND", false
			}
			fmt.Fprintf(w, "%-14s %-26s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", wl.name, def.name, va, vb, 100*worse, 100*def.bound, verdict)
		}
		sameSeed := len(a.seeds[wl.name]) == 1 && len(b.seeds[wl.name]) == 1
		for seed := range a.seeds[wl.name] {
			sameSeed = sameSeed && b.seeds[wl.name][seed]
		}
		for _, name := range exactCounts {
			va, okA := a.median(wl.name, name)
			vb, okB := b.median(wl.name, name)
			if !sameSeed || !okA || !okB {
				continue
			}
			verdict := "equal"
			if va != vb {
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(w, "%-14s %-26s %14.4f %14.4f %9s\n", wl.name, name+" (exact)", va, vb, verdict)
		}
		if n := a.failed[wl.name] + b.failed[wl.name]; n > 0 {
			fmt.Fprintf(w, "%-14s %d failed ops\n", wl.name, n)
			ok = false
		}
	}
	return ok, nil
}
