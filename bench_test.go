// Package repro_test hosts the benchmark harness: one benchmark per
// table and figure of the paper (run the full-scale versions with
// cmd/siexp), plus ablation benches for the design decisions
// docs/ARCHITECTURE.md describes. Benchmarks use bounded corpus sizes so `go test -bench=.`
// completes on a laptop; shapes, not absolute numbers, are the
// reproduction target.
package repro_test

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/workload"
	"repro/si"
)

// benchConfig returns an experiments config sized for benchmarking.
func benchConfig(b *testing.B) experiments.Config {
	return experiments.Config{
		Seed:             2012,
		WorkDir:          b.TempDir(),
		Fig2Sizes:        []int{1, 10, 100, 1000},
		Fig3MinNodes:     20000,
		GridSizes:        []int{100, 400},
		RuntimeSentences: 800,
		RuntimeReps:      1,
		Fig13Sizes:       []int{100, 400, 1600},
	}
}

func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	r, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = r.Run(benchConfig(b))
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func BenchmarkFig2UniqueSubtrees(b *testing.B) {
	res := runExperiment(b, "fig2")
	last := res.Rows[len(res.Rows)-1]
	keys, _ := strconv.Atoi(last[5])
	b.ReportMetric(float64(keys), "keys@mss5")
}

func BenchmarkFig3SubtreesVsBranching(b *testing.B) {
	res := runExperiment(b, "fig3")
	b.ReportMetric(float64(len(res.Rows)), "branching-factors")
}

func BenchmarkFig8IndexSize(b *testing.B) {
	res := runExperiment(b, "fig8")
	// Last row = largest corpus, subtree-interval; report mss=5 bytes.
	v, _ := strconv.ParseFloat(res.Rows[len(res.Rows)-1][6], 64)
	b.ReportMetric(v, "interval-bytes@mss5")
}

func BenchmarkTable1SizeRatio(b *testing.B) {
	res := runExperiment(b, "tab1")
	v, _ := strconv.ParseFloat(res.Rows[len(res.Rows)-1][2], 64)
	b.ReportMetric(v, "rootsplit-ratio")
}

func BenchmarkFig9PostingCounts(b *testing.B) {
	res := runExperiment(b, "fig9")
	v, _ := strconv.ParseFloat(res.Rows[len(res.Rows)-1][6], 64)
	b.ReportMetric(v, "interval-postings@mss5")
}

func BenchmarkFig10BuildTime(b *testing.B) {
	runExperiment(b, "fig10")
}

func BenchmarkFig11RuntimeByMatches(b *testing.B) {
	runExperiment(b, "fig11")
}

func BenchmarkFig12RuntimeByQuerySize(b *testing.B) {
	runExperiment(b, "fig12")
}

func BenchmarkTable2SystemComparison(b *testing.B) {
	res := runExperiment(b, "tab2")
	// Speedup of RS over ATreeGrep on the last (HML) class.
	last := res.Rows[len(res.Rows)-1]
	rs, _ := strconv.ParseFloat(last[1], 64)
	atg, _ := strconv.ParseFloat(last[2], 64)
	if rs > 0 {
		b.ReportMetric(atg/rs, "atg/rs-speedup")
	}
}

func BenchmarkFig13Scalability(b *testing.B) {
	runExperiment(b, "fig13")
}

func BenchmarkTable3JoinCounts(b *testing.B) {
	res := runExperiment(b, "tab3")
	v, _ := strconv.ParseFloat(res.Rows[0][1], 64)
	b.ReportMetric(v, "joins-mss2-rootsplit")
}

// --- sharding benches -------------------------------------------------

// BenchmarkShardedBuild times building the generated 10k-tree corpus as
// a single directory vs. 4 concurrently built shards. On a multi-core
// machine the sharded build wins roughly linearly in cores; results are
// asserted identical across shard counts (Count parity) so the timing
// comparison cannot drift from correctness.
func BenchmarkShardedBuild(b *testing.B) {
	trees := si.GenerateCorpus(2012, 10000)
	queries := []string{"NP(DT)(NN)", "S(NP)(VP)", "S(//NN)"}
	want := map[string]int{} // filled by the first sub-benchmark to run
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			opts := si.DefaultBuildOptions()
			opts.Shards = shards
			var dir string
			for i := 0; i < b.N; i++ {
				dir = filepath.Join(b.TempDir(), "ix")
				if _, err := si.Build(dir, trees, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			ix, err := si.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			if ix.Shards() != shards {
				b.Fatalf("Shards() = %d, want %d", ix.Shards(), shards)
			}
			for _, q := range queries {
				n, err := ix.Count(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				if prev, ok := want[q]; !ok {
					want[q] = n
				} else if n != prev {
					b.Fatalf("shards=%d %s: Count = %d, want %d", shards, q, n, prev)
				}
			}
		})
	}
}

// BenchmarkShardedQuery measures query latency through the 4-shard
// fan-out with the default open: no user-level page cache (the paper's
// §6.1 setup). The sub-benchmark keeps its name "uncached" so the
// committed baseline entry still matches it.
func BenchmarkShardedQuery(b *testing.B) {
	trees := si.GenerateCorpus(2012, 4000)
	dir := filepath.Join(b.TempDir(), "ix")
	opts := si.DefaultBuildOptions()
	opts.Shards = 4
	if _, err := si.Build(dir, trees, opts); err != nil {
		b.Fatal(err)
	}
	qs := []string{"NP(DT)(NN)", "VP(VBZ)(NP)", "S(//NN)"}
	b.Run("uncached", func(b *testing.B) {
		ix, err := si.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer ix.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				if _, err := ix.Search(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- ablation benches -------------------------------------------------

// BenchmarkAblationRootDedup quantifies §6.2.1's posting deduplication:
// root-split with and without collapsing symmetric instances.
func BenchmarkAblationRootDedup(b *testing.B) {
	trees := si.GenerateCorpus(2012, 500)
	for i := 0; i < b.N; i++ {
		with, err := core.Build(filepath.Join(b.TempDir(), "w"), trees,
			core.Options{MSS: 3, Coding: postings.RootSplit})
		if err != nil {
			b.Fatal(err)
		}
		without, err := core.Build(filepath.Join(b.TempDir(), "wo"), trees,
			core.Options{MSS: 3, Coding: postings.RootSplit, DisableRootDedup: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(without.Postings)/float64(with.Postings), "dedup-saving")
	}
}

// BenchmarkAblationNodeApproach compares the node approach (mss=1, the
// LPath model) with subtree decomposition (mss=3) on the same queries —
// the paper's core speedup claim.
func BenchmarkAblationNodeApproach(b *testing.B) {
	trees := si.GenerateCorpus(2012, 1500)
	qs := []*query.Query{
		query.MustParse("S(NP(DT)(NN))(VP(VBZ))"),
		query.MustParse("VP(VBZ(is))(NP(DT(a)))"),
		query.MustParse("NP(DT(the))(JJ)(NN)"),
	}
	for _, mss := range []int{1, 3} {
		b.Run(fmt.Sprintf("mss%d", mss), func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "ix")
			if _, err := core.Build(dir, trees, core.Options{MSS: mss, Coding: postings.RootSplit}); err != nil {
				b.Fatal(err)
			}
			ix, err := core.OpenLive(dir, core.OpenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					if _, err := ix.SearchQuery(context.Background(), q, core.SearchOpts{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationCodingQueryLatency isolates per-coding query cost on
// a fixed corpus and mss (the Figure 11 mechanism, minus binning).
func BenchmarkAblationCodingQueryLatency(b *testing.B) {
	trees := si.GenerateCorpus(2012, 1500)
	q := query.MustParse("S(NP(DT)(NN))(VP(VBZ))")
	for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
		b.Run(coding.String(), func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "ix")
			if _, err := core.Build(dir, trees, core.Options{MSS: 3, Coding: coding}); err != nil {
				b.Fatal(err)
			}
			ix, err := core.OpenLive(dir, core.OpenOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.SearchQuery(context.Background(), q, core.SearchOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchBatch compares batched execution against N sequential
// searches on the WH serving workload, whose queries share many cover
// pieces. Beyond latency it asserts the point of batching: the batch
// must issue strictly fewer physical posting-list fetches than the
// sequential runs (checked via the index's fetch counter, not wall
// clock — so the guarantee holds at -benchtime=1x in CI too). The
// limit=10 level is a windowed batch: each distinct plan is bounded as
// a limited Search bounds it, and its fetches/op and joinrows/op gate
// that the window is pushed down rather than cut afterwards.
func BenchmarkSearchBatch(b *testing.B) {
	queries := workload.ServerQueries()
	for _, shards := range []int{1, 4} {
		opts := si.DefaultBuildOptions()
		opts.Shards = shards
		dir := filepath.Join(b.TempDir(), fmt.Sprintf("ix%d", shards))
		if _, err := si.Build(dir, si.GenerateCorpus(2012, 3000), opts); err != nil {
			b.Fatal(err)
		}
		ix, err := si.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer ix.Close()

		// Fetch-count assertion, outside the timed loops.
		base := ix.Stats().PostingFetches
		for _, q := range queries {
			if _, err := ix.Search(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		seqFetches := ix.Stats().PostingFetches - base
		if _, err := ix.SearchBatch(context.Background(), queries); err != nil {
			b.Fatal(err)
		}
		batchFetches := ix.Stats().PostingFetches - base - seqFetches
		if batchFetches >= seqFetches {
			b.Fatalf("shards=%d: batch issued %d posting fetches, sequential %d; batching must fetch strictly less",
				shards, batchFetches, seqFetches)
		}

		b.Run(fmt.Sprintf("sequential/shards=%d", shards), func(b *testing.B) {
			b.ReportMetric(float64(seqFetches), "fetches/op")
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := ix.Search(context.Background(), q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("batched/shards=%d", shards), func(b *testing.B) {
			b.ReportMetric(float64(batchFetches), "fetches/op")
			for i := 0; i < b.N; i++ {
				if _, err := ix.SearchBatch(context.Background(), queries); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("limit=10/shards=%d", shards), func(b *testing.B) {
			var fetches, rows uint64
			for i := 0; i < b.N; i++ {
				res, err := ix.SearchBatch(context.Background(), queries, si.WithLimit(10))
				if err != nil {
					b.Fatal(err)
				}
				fetches, rows = 0, 0
				for _, r := range res {
					fetches += r.Stats.PostingFetches
					rows += r.Stats.JoinRows
				}
			}
			b.ReportMetric(float64(fetches), "fetches/op")
			b.ReportMetric(float64(rows), "joinrows/op")
		})
	}
}

// --- v2 search API benches --------------------------------------------

// BenchmarkCountOnly quantifies the dedicated count path of the v2
// API: Count evaluates the same joins as Search but never materializes
// a match slice, so its allocation volume must drop measurably vs.
// Search-then-len. Run with -benchmem to see allocs/op side by side.
func BenchmarkCountOnly(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "ix")
	if _, err := si.Build(dir, si.GenerateCorpus(2012, 4000), si.DefaultBuildOptions()); err != nil {
		b.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	const q = "NP(DT)(NN)" // high-cardinality: thousands of matches
	res, err := ix.Search(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	want := res.Count
	b.Run("search+len", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := ix.Search(context.Background(), q)
			if err != nil || len(r.Matches) != want {
				b.Fatalf("len = %d (%v), want %d", len(r.Matches), err, want)
			}
		}
	})
	b.Run("count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n, err := ix.Count(context.Background(), q)
			if err != nil || n != want {
				b.Fatalf("Count = %d (%v), want %d", n, err, want)
			}
		}
	})
}

// BenchmarkLimitedSearch is the early-termination claim of the v2 API,
// asserted at both levels of limit pushdown (on counters rather than
// wall clock, so the guarantees hold at -benchtime=1x in CI too):
//
//   - across shards (shards=4): a small limit consults shards lazily
//     and must issue strictly fewer posting fetches than the unlimited
//     fan-out of the same query;
//   - inside a shard (shards=1, where no shard can be skipped): the
//     streaming join must produce strictly fewer join rows than the
//     unlimited run, with no regression in posting fetches.
func BenchmarkLimitedSearch(b *testing.B) {
	const q = "NP(DT)(NN)"
	for _, shards := range []int{1, 4} {
		dir := filepath.Join(b.TempDir(), fmt.Sprintf("ix%d", shards))
		opts := si.DefaultBuildOptions()
		opts.Shards = shards
		if _, err := si.Build(dir, si.GenerateCorpus(2012, 4000), opts); err != nil {
			b.Fatal(err)
		}
		ix, err := si.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer ix.Close()

		base := ix.Stats().PostingFetches
		fres, err := ix.Search(context.Background(), q)
		if err != nil {
			b.Fatal(err)
		}
		// Fixture guard: the strictly-fewer assertions below presume the
		// limit is small relative to the result set; a corpus or query
		// change that breaks this should fail here, not look like an
		// engine regression.
		if fres.Count < 100 {
			b.Fatalf("shards=%d: fixture matches only %d times; limit 5 would not be small relative to it", shards, fres.Count)
		}
		fullFetches := ix.Stats().PostingFetches - base
		lres, err := ix.Search(context.Background(), q, si.WithLimit(5))
		if err != nil {
			b.Fatal(err)
		}
		limitedFetches := ix.Stats().PostingFetches - base - fullFetches
		if len(lres.Matches) != 5 || !lres.Stats.Truncated {
			b.Fatalf("shards=%d: limited search returned %d matches truncated=%v",
				shards, len(lres.Matches), lres.Stats.Truncated)
		}
		if shards > 1 && limitedFetches >= fullFetches {
			b.Fatalf("shards=%d: limited search issued %d posting fetches, unlimited %d; want strictly fewer",
				shards, limitedFetches, fullFetches)
		}
		if limitedFetches > fullFetches {
			b.Fatalf("shards=%d: limited search issued %d posting fetches, unlimited %d; limits must not regress fetches",
				shards, limitedFetches, fullFetches)
		}
		if lres.Stats.JoinRows >= fres.Stats.JoinRows {
			b.Fatalf("shards=%d: limited search produced %d join rows, unlimited %d; want strictly fewer",
				shards, lres.Stats.JoinRows, fres.Stats.JoinRows)
		}

		b.Run(fmt.Sprintf("unlimited/shards=%d", shards), func(b *testing.B) {
			b.ReportMetric(float64(fullFetches), "fetches/op")
			b.ReportMetric(float64(fres.Stats.JoinRows), "joinrows/op")
			for i := 0; i < b.N; i++ {
				if _, err := ix.Search(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("limit5/shards=%d", shards), func(b *testing.B) {
			b.ReportMetric(float64(limitedFetches), "fetches/op")
			b.ReportMetric(float64(lres.Stats.JoinRows), "joinrows/op")
			for i := 0; i < b.N; i++ {
				if _, err := ix.Search(context.Background(), q, si.WithLimit(5)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepeatedCount is the decoded-list memo's gate: the 48 WH
// queries counted on a 2000-tree root-split index whose leaf has
// already decoded the queries' repeated posting lists into its memo.
// One op counts all 48. fetches/op and joinrows/op are the work of one
// pass, and they must equal a cold pass's: the memo saves decoding,
// never a read or a join row. A warm pass that admits a list, or is
// served without a memo hit, fails the benchmark.
func BenchmarkRepeatedCount(b *testing.B) {
	ctx := context.Background()
	queries := workload.ServerQueries()
	dir := filepath.Join(b.TempDir(), "ix")
	if _, err := si.Build(dir, si.GenerateCorpus(2012, 2000), si.DefaultBuildOptions()); err != nil {
		b.Fatal(err)
	}
	ix, err := si.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ix.Close()
	pass := func() (fetches, rows uint64) {
		before := ix.Stats().PostingFetches
		for _, q := range queries {
			res, err := ix.Search(ctx, q, si.WithCountOnly())
			if err != nil {
				b.Fatal(err)
			}
			rows += res.Stats.JoinRows
		}
		return ix.Stats().PostingFetches - before, rows
	}
	coldFetches, coldRows := pass()
	pass() // the second fetch of each key admits its list
	warm := ix.Stats()
	fetches, rows := pass()
	after := ix.Stats()
	if fetches != coldFetches || rows != coldRows {
		b.Fatalf("a warm pass read %d postings lists and %d join rows, a cold one %d and %d", fetches, rows, coldFetches, coldRows)
	}
	if after.ListMemoHits == warm.ListMemoHits || after.ListMemoAdmissions != warm.ListMemoAdmissions {
		b.Fatalf("a warm pass hit the memo %d times and admitted %d lists; want hits and no admissions",
			after.ListMemoHits-warm.ListMemoHits, after.ListMemoAdmissions-warm.ListMemoAdmissions)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(fetches), "fetches/op")
	b.ReportMetric(float64(rows), "joinrows/op")
}
