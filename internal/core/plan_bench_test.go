package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/corpusgen"
	"repro/internal/lingtree"
	"repro/internal/planner"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
	"repro/internal/workload"
)

// planMissQueries is the paper's 48 WH queries and one 70-query FB set
// cut from held-out trees of the corpus generator.
func planMissQueries(trees []*lingtree.Tree) []*query.Query {
	var qs []*query.Query
	wh := workload.WHQuerySet()
	for _, g := range workload.WHGroups {
		qs = append(qs, wh[g]...)
	}
	gen := corpusgen.New(2012)
	held := make([]*lingtree.Tree, 300)
	for i := range held {
		held[i] = gen.Tree(1<<20 + i)
	}
	fb := workload.FBQuerySet(workload.NewLabelClassifier(trees), held, 2012)
	for _, cls := range workload.FBClasses {
		qs = append(qs, fb[cls]...)
	}
	return qs
}

// BenchmarkPlanMiss measures what a plan-map miss costs the live
// index: compiling the costed root-split plan of every WH and FB-70
// query against the stored counts of a 2000-tree index on 1 and 4
// shards. One op is one plan. counts/op is the stored-count reads a
// plan issues — Stats.Count calls, each one B+Tree Get per leaf — so it
// moves with widening's candidates and the per-plan memo. Each timed
// iteration plans the whole query set; ns/op, and B/op and allocs/op
// from one untimed pass, are reported per plan, so every metric reads
// the same at any iteration count.
func BenchmarkPlanMiss(b *testing.B) {
	trees := corpusgen.New(2012).Trees(2000)
	qs := planMissQueries(trees)
	for _, shards := range []int{1, 4} {
		dir := filepath.Join(b.TempDir(), "ix")
		if _, err := BuildSharded(dir, trees, Options{MSS: 3, Coding: postings.RootSplit}, shards); err != nil {
			b.Fatal(err)
		}
		l := openDir(b, dir, OpenOptions{})
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := l.pin()
			if err != nil {
				b.Fatal(err)
			}
			defer e.release()
			reads := 0
			stats := &planner.Stats{Count: func(k subtree.Key) (uint64, error) {
				reads++
				return e.stats.Count(k)
			}}
			pass := func() {
				for _, q := range qs {
					if _, err := planner.New(q, e.mss, e.coding, stats); err != nil {
						b.Fatalf("%s: %v", q, err)
					}
				}
			}
			pass() // warm the page cache and the allocator
			reads = 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			per, counted := float64(len(qs)), reads
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				pass()
			}
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N)/per, "ns/op")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/op")
			b.ReportMetric(float64(counted)/per, "counts/op")
		})
	}
}
