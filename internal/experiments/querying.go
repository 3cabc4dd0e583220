package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/baseline/atreegrep"
	"repro/internal/baseline/freqindex"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/treebank"
	"repro/internal/workload"
)

// fig11Sentences is the corpus size for the runtime experiments; the
// paper uses 100k sentences.
func fig11Sentences(scale int) int { return 4000 * scale }

// queryWorkload assembles the paper's combined workload: 48 WH + up to
// 70 FB queries.
func queryWorkload(cfg Config) []*query.Query {
	var qs []*query.Query
	wh := workload.WHQuerySet()
	for _, g := range workload.WHGroups {
		qs = append(qs, wh[g]...)
	}
	lc := workload.NewLabelClassifier(cfg.corpus(1000))
	fb := workload.FBQuerySet(lc, cfg.heldOut(400), cfg.Seed)
	for _, cls := range workload.FBClasses {
		qs = append(qs, fb[cls]...)
	}
	return qs
}

// runtimeSample is one measured query evaluation.
type runtimeSample struct {
	qsize   int
	matches int
	seconds float64
}

// runtimeCache shares one timing sweep between Figures 11 and 12.
var runtimeCache = map[string]map[string][]runtimeSample{}

// measureRuntimes builds an index per (coding, mss) and times the whole
// workload against each; it backs Figures 11 and 12. Each query runs
// `reps` times and the mean is kept (the paper uses 5).
func measureRuntimes(cfg Config, reps int) (map[string][]runtimeSample, error) {
	if cfg.RuntimeReps > 0 {
		reps = cfg.RuntimeReps
	}
	sentences := cfg.RuntimeSentences
	if sentences == 0 {
		sentences = fig11Sentences(cfg.Scale)
	}
	cacheKey := fmt.Sprintf("%d-%d-%d", cfg.Seed, sentences, reps)
	if got, ok := runtimeCache[cacheKey]; ok {
		return got, nil
	}
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	trees := cfg.corpus(sentences)
	qs := queryWorkload(cfg)
	out := map[string][]runtimeSample{}
	for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
		for mss := 1; mss <= 5; mss++ {
			key := fmt.Sprintf("%s-mss%d", coding, mss)
			if _, err := core.Build(subdir(dir, key), trees, core.Options{MSS: mss, Coding: coding}); err != nil {
				return nil, err
			}
			ix, err := core.OpenLive(subdir(dir, key), core.OpenOptions{})
			if err != nil {
				return nil, err
			}
			for _, q := range qs {
				var matches int
				start := time.Now()
				for r := 0; r < reps; r++ {
					res, err := ix.SearchQuery(context.Background(), q, core.SearchOpts{})
					if err != nil {
						ix.Close()
						return nil, fmt.Errorf("%s query %s: %w", key, q, err)
					}
					matches = len(res.Matches)
				}
				secs := time.Since(start).Seconds() / float64(reps)
				out[key] = append(out[key], runtimeSample{
					qsize: q.Size(), matches: matches, seconds: secs,
				})
			}
			if err := ix.Close(); err != nil {
				return nil, err
			}
		}
	}
	runtimeCache[cacheKey] = out
	return out, nil
}

// matchBins are Figure 11's x-axis bins over the number of matches.
var matchBins = []struct {
	label string
	lo    int
	hi    int // exclusive; -1 = unbounded
}{
	{"<10", 0, 10},
	{"10-100", 10, 100},
	{"100-1k", 100, 1000},
	{"1k-10k", 1000, 10000},
	{">=10k", 10000, -1},
}

// Fig11 reports mean query runtime binned by number of matches, per
// coding and mss.
func Fig11(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	samples, err := measureRuntimes(cfg, 3)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig11",
		Title:  "Mean query runtime (seconds) by number of matches",
		Header: []string{"coding", "mss", "<10", "10-100", "100-1k", "1k-10k", ">=10k"},
	}
	for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
		for mss := 1; mss <= 5; mss++ {
			key := fmt.Sprintf("%s-mss%d", coding, mss)
			row := []string{coding.String(), fmt.Sprintf("%d", mss)}
			for _, bin := range matchBins {
				sum, n := 0.0, 0
				for _, s := range samples[key] {
					if s.matches >= bin.lo && (bin.hi < 0 || s.matches < bin.hi) {
						sum += s.seconds
						n++
					}
				}
				if n == 0 {
					row = append(row, "-")
				} else {
					row = append(row, fmt.Sprintf("%.5f", sum/float64(n)))
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.Notes = append(res.Notes,
		"paper (Fig 11): runtimes fall as mss grows; root-split beats interval everywhere and beats filter for mss>=2")
	return res, nil
}

// Fig12 reports mean runtime by query size, restricted (as the paper
// does) to queries with at least 100 matches.
func Fig12(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	samples, err := measureRuntimes(cfg, 3)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig12",
		Title:  "Mean runtime (seconds) by query size (queries with >=100 matches)",
		Header: []string{"coding", "mss", "size<=2", "3-4", "5-6", "7-8", ">=9"},
	}
	bins := []struct {
		label  string
		lo, hi int
	}{{"<=2", 0, 2}, {"3-4", 3, 4}, {"5-6", 5, 6}, {"7-8", 7, 8}, {">=9", 9, 1 << 30}}
	for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
		for mss := 1; mss <= 5; mss++ {
			key := fmt.Sprintf("%s-mss%d", coding, mss)
			row := []string{coding.String(), fmt.Sprintf("%d", mss)}
			for _, bin := range bins {
				sum, n := 0.0, 0
				for _, s := range samples[key] {
					if s.matches >= 100 && s.qsize >= bin.lo && s.qsize <= bin.hi {
						sum += s.seconds
						n++
					}
				}
				if n == 0 {
					row = append(row, "-")
				} else {
					row = append(row, fmt.Sprintf("%.5f", sum/float64(n)))
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.Notes = append(res.Notes,
		"paper (Fig 12): root-split and interval grow with query size; filter erratic; larger mss helps large queries")
	return res, nil
}

// Table2 compares SI with root-split coding (mss=3) against ATreeGrep
// and the frequency-based (TreePi) index with cutoffs 0.1%, 1%, 10%,
// per FB frequency class.
func Table2(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	sentences := cfg.RuntimeSentences
	if sentences == 0 {
		sentences = fig11Sentences(cfg.Scale)
	}
	trees := cfg.corpus(sentences)
	lc := workload.NewLabelClassifier(trees)
	fb := workload.FBQuerySet(lc, cfg.heldOut(400), cfg.Seed)

	if _, err := core.Build(subdir(dir, "rs"), trees, core.Options{MSS: 3, Coding: postings.RootSplit}); err != nil {
		return nil, err
	}
	rs, err := core.OpenLive(subdir(dir, "rs"), core.OpenOptions{})
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	// Baselines validate against the same on-disk data file the Subtree
	// Index wrote and keep their own postings on disk too, so all
	// systems pay comparable storage-access costs.
	store, err := treebank.OpenStore(subdir(dir, "rs"))
	if err != nil {
		return nil, err
	}
	defer store.Close()
	atg, err := atreegrep.Build(trees, store, subdir(dir, "atg"))
	if err != nil {
		return nil, err
	}
	defer atg.Close()
	fracs := []float64{0.001, 0.01, 0.1}
	fis := make([]*freqindex.Index, len(fracs))
	for i, f := range fracs {
		fi, err := freqindex.Build(trees, store, subdir(dir, fmt.Sprintf("fb%d", i)),
			freqindex.Options{MSS: 3, Fraction: f})
		if err != nil {
			return nil, err
		}
		defer fi.Close()
		fis[i] = fi
	}

	res := &Result{
		ID:     "tab2",
		Title:  "Mean runtime (seconds) per FB class: RS vs ATreeGrep vs FreqIndex",
		Header: []string{"class", "RS", "ATG", "FB(0.1%)", "FB(1%)", "FB(10%)"},
	}
	for _, cls := range workload.FBClasses {
		qs := fb[cls]
		if len(qs) == 0 {
			continue
		}
		row := []string{string(cls)}
		row = append(row, fmt.Sprintf("%.5f", timeQueries(qs, func(q *query.Query) error {
			_, err := rs.SearchQuery(context.Background(), q, core.SearchOpts{})
			return err
		})))
		row = append(row, fmt.Sprintf("%.5f", timeQueries(qs, func(q *query.Query) error {
			_, err := atg.Query(q)
			return err
		})))
		for _, fi := range fis {
			fi := fi
			row = append(row, fmt.Sprintf("%.5f", timeQueries(qs, func(q *query.Query) error {
				_, err := fi.Query(q)
				return err
			})))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper (Table 2): RS wins every class by at least an order of magnitude")
	return res, nil
}

// timeQueries returns mean seconds per query; errors surface as +Inf so
// a broken configuration is obvious in the output.
func timeQueries(qs []*query.Query, run func(*query.Query) error) float64 {
	start := time.Now()
	for _, q := range qs {
		if err := run(q); err != nil {
			return float64(^uint(0) >> 1)
		}
	}
	return time.Since(start).Seconds() / float64(len(qs))
}

// fig13Sizes are the corpus sizes of the scalability experiment
// (paper: 1k..1M sentences).
func fig13Sizes(scale int) []int {
	return []int{100 * scale, 1000 * scale, 10000 * scale}
}

// Fig13 reports mean workload runtime vs corpus size at mss=3 for the
// three codings, plus each coding's growth factor across the sweep.
func Fig13(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	sizes := cfg.Fig13Sizes
	if len(sizes) == 0 {
		sizes = fig13Sizes(cfg.Scale)
	}
	trees := cfg.corpus(sizes[len(sizes)-1])
	lc := workload.NewLabelClassifier(trees[:sizes[0]])
	fb := workload.FBQuerySet(lc, cfg.heldOut(400), cfg.Seed)
	var qs []*query.Query
	for _, cls := range workload.FBClasses {
		qs = append(qs, fb[cls]...)
	}
	res := &Result{
		ID:     "fig13",
		Title:  "Mean FB-query runtime (seconds) vs corpus size, mss=3",
		Header: []string{"sentences", "filter-based", "root-split", "subtree-interval"},
	}
	growth := map[postings.Coding][]float64{}
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
			key := fmt.Sprintf("s%d-%s", n, coding)
			if _, err := core.Build(subdir(dir, key), trees[:n], core.Options{MSS: 3, Coding: coding}); err != nil {
				return nil, err
			}
			ix, err := core.OpenLive(subdir(dir, key), core.OpenOptions{})
			if err != nil {
				return nil, err
			}
			mean := timeQueries(qs, func(q *query.Query) error {
				_, err := ix.SearchQuery(context.Background(), q, core.SearchOpts{})
				return err
			})
			ix.Close()
			row = append(row, fmt.Sprintf("%.5f", mean))
			growth[coding] = append(growth[coding], mean)
		}
		res.Rows = append(res.Rows, row)
	}
	for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
		g := growth[coding]
		res.Notes = append(res.Notes, fmt.Sprintf("%s growth factor over sweep: %.1fx",
			coding, g[len(g)-1]/g[0]))
	}
	res.Notes = append(res.Notes,
		"paper (Fig 13): ~linear growth for all; root-split has the smallest factor (529x vs 752x/1025x over 1k->1m)")
	return res, nil
}

// Table3 reports the average number of joins per WH group for mss 2..5
// under minRC (root-split, column r) and optimalCover (subtree
// interval, column s).
func Table3(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	wh := workload.WHQuerySet()
	res := &Result{
		ID:    "tab3",
		Title: "Average joins per WH group: r=root-split(minRC), s=interval(optimalCover)",
		Header: []string{"group",
			"mss2-r", "mss2-s", "mss3-r", "mss3-s", "mss4-r", "mss4-s", "mss5-r", "mss5-s"},
	}
	groups := append([]string(nil), workload.WHGroups...)
	sort.Strings(groups)
	for _, g := range groups {
		row := []string{g}
		for mss := 2; mss <= 5; mss++ {
			var rSum, sSum float64
			for _, q := range wh[g] {
				comp := q.ChildComponent(0)
				cr, err := cover.MinRootSplit(q, comp, mss)
				if err != nil {
					return nil, err
				}
				co, err := cover.Optimal(q, comp, mss)
				if err != nil {
					return nil, err
				}
				rSum += float64(cr.Joins())
				sSum += float64(co.Joins())
			}
			n := float64(len(wh[g]))
			row = append(row, fmtF(rSum/n), fmtF(sSum/n))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper (Table 3): r >= s in every cell; both fall as mss grows")
	return res, nil
}
