package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/postings"
	"repro/internal/subtree"
)

// fig2Sizes are the corpus sizes (in sentences) swept by Figure 2; the
// paper goes to 10^6, scaled down by default.
func fig2Sizes(scale int) []int {
	base := []int{1, 10, 100, 1000, 10000}
	out := make([]int, len(base))
	for i, b := range base {
		out[i] = b * scale
	}
	return out
}

// Fig2 counts unique subtrees (index keys) as a function of input size
// for mss = 1..5. The paper's finding: near-linear growth on log-log
// axes, with similar growth rates across mss.
func Fig2(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	sizes := cfg.Fig2Sizes
	if len(sizes) == 0 {
		sizes = fig2Sizes(cfg.Scale)
	}
	return fig2On(cfg, sizes)
}

func fig2On(cfg Config, sizes []int) (*Result, error) {
	trees := cfg.corpus(sizes[len(sizes)-1])
	res := &Result{
		ID:     "fig2",
		Title:  "Unique subtrees (index keys) by corpus size and mss",
		Header: []string{"sentences", "mss=1", "mss=2", "mss=3", "mss=4", "mss=5"},
	}
	// Incremental sets so each corpus size extends the previous.
	sets := make([]map[string]struct{}, 5)
	for i := range sets {
		sets[i] = map[string]struct{}{}
	}
	done := 0
	var ex subtree.Extractor
	for _, n := range sizes {
		// Extract once at mss=5 and bucket keys by their size (its
		// instance's slot count): a key of size s is an index key for
		// every mss >= s.
		for ; done < n && done < len(trees); done++ {
			ex.Extract(trees[done], 5, func(key []byte, _ int, slots []int) {
				for m := len(slots); m <= 5; m++ {
					sets[m-1][string(key)] = struct{}{}
				}
			})
		}
		row := []string{fmt.Sprintf("%d", n)}
		for m := 1; m <= 5; m++ {
			row = append(row, fmt.Sprintf("%d", len(sets[m-1])))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: growth is ~linear in corpus size with similar rates across mss (Fig 2)")
	return res, nil
}

// Fig3 measures the average number of extracted subtrees per node as a
// function of the node's branching factor, for subtree sizes 2..5 over
// a sample of at least 50,000 nodes (the paper's setup).
func Fig3(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	minNodes := cfg.Fig3MinNodes
	if minNodes == 0 {
		minNodes = 50000 * cfg.Scale
	}
	return fig3On(cfg, minNodes)
}

func fig3On(cfg Config, minNodes int) (*Result, error) {
	res := &Result{
		ID:     "fig3",
		Title:  "Avg subtrees per node by branching factor",
		Header: []string{"branching", "nodes", "ss=2", "ss=3", "ss=4", "ss=5"},
	}
	type acc struct {
		nodes int
		sums  [4]float64
	}
	byBF := map[int]*acc{}
	nodes := 0
	gen := corpusgen.New(cfg.Seed)
	for tid := 0; nodes < minNodes; tid++ {
		t := gen.Tree(tid)
		for v := range t.Nodes {
			bf := len(t.Nodes[v].Children)
			if bf == 0 {
				continue
			}
			a := byBF[bf]
			if a == nil {
				a = &acc{}
				byBF[bf] = a
			}
			a.nodes++
			for ss := 2; ss <= 5; ss++ {
				a.sums[ss-2] += float64(subtree.CountRooted(t, v, ss))
			}
			nodes++
		}
	}
	maxBF := 0
	for bf := range byBF {
		if bf > maxBF {
			maxBF = bf
		}
	}
	for bf := 1; bf <= maxBF; bf++ {
		a := byBF[bf]
		if a == nil {
			continue
		}
		row := []string{fmt.Sprintf("%d", bf), fmt.Sprintf("%d", a.nodes)}
		for i := 0; i < 4; i++ {
			row = append(row, fmtF(a.sums[i]/float64(a.nodes)))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: subtree counts grow steeply with branching factor (Fig 3); avg branching of parse trees is ~1.5")
	return res, nil
}

// gridCache lets one `siexp -exp all` run share the expensive build
// grid across Figures 8-10 and Table 1 (they report different columns
// of the same builds).
var gridCache = map[string]map[string]*core.Meta{}

// buildGrid builds an index for every (coding, mss, corpus size) cell
// and returns the metas; shared by Figures 8, 9, 10 and Table 1.
func buildGrid(cfg Config, sizes []int) (map[string]*core.Meta, error) {
	cacheKey := fmt.Sprintf("%d-%v", cfg.Seed, sizes)
	if got, ok := gridCache[cacheKey]; ok {
		return got, nil
	}
	dir, cleanup, err := cfg.workDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	trees := cfg.corpus(sizes[len(sizes)-1])
	out := map[string]*core.Meta{}
	for _, n := range sizes {
		sub := trees[:n]
		for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
			for mss := 1; mss <= 5; mss++ {
				key := gridKey(n, coding, mss)
				meta, err := core.Build(
					subdir(dir, key),
					sub,
					core.Options{MSS: mss, Coding: coding},
				)
				if err != nil {
					return nil, fmt.Errorf("building %s: %w", key, err)
				}
				out[key] = meta
			}
		}
	}
	gridCache[cacheKey] = out
	return out, nil
}

func gridKey(n int, coding postings.Coding, mss int) string {
	return fmt.Sprintf("%d-%s-mss%d", n, coding, mss)
}

// fig8Sizes are the corpus sizes of Figures 8-10 (paper: 100..100k).
func fig8Sizes(scale int) []int {
	return []int{100 * scale, 1000 * scale, 10000 * scale}
}

func gridResult(cfg Config, id, title, metric string, pick func(*core.Meta) string) (*Result, error) {
	cfg = cfg.normalize()
	sizes := cfg.GridSizes
	if len(sizes) == 0 {
		sizes = fig8Sizes(cfg.Scale)
	}
	grid, err := buildGrid(cfg, sizes)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"sentences", "coding", "mss=1", "mss=2", "mss=3", "mss=4", "mss=5"},
	}
	for _, n := range sizes {
		for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
			row := []string{fmt.Sprintf("%d", n), coding.String()}
			for mss := 1; mss <= 5; mss++ {
				row = append(row, pick(grid[gridKey(n, coding, mss)]))
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.Notes = append(res.Notes, metric)
	return res, nil
}

// Fig8 reports index sizes per coding and mss.
func Fig8(cfg Config) (*Result, error) {
	return gridResult(cfg, "fig8", "Index size (bytes)",
		"paper: filter < root-split < subtree-interval at every cell; the gap between root-split and interval widens with mss (Fig 8)",
		func(m *core.Meta) string { return fmtBytes(m.IndexBytes) })
}

// Fig9 reports total posting counts per coding and mss.
func Fig9(cfg Config) (*Result, error) {
	return gridResult(cfg, "fig9", "Total number of postings",
		"paper: root-split and interval coincide at mss=1 and diverge as mss grows; filter smallest (Fig 9)",
		func(m *core.Meta) string { return fmt.Sprintf("%d", m.Postings) })
}

// Fig10 reports index construction time per coding and mss.
func Fig10(cfg Config) (*Result, error) {
	return gridResult(cfg, "fig10", "Index construction time",
		"paper: filter fastest, interval slowest, gap grows with mss (Fig 10)",
		func(m *core.Meta) string { return fmtDur(time.Duration(m.BuildNanos)) })
}

// Table1 reports the ratio of index size at mss=5 to mss=1.
func Table1(cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	sizes := cfg.GridSizes
	if len(sizes) == 0 {
		sizes = fig8Sizes(cfg.Scale)
	}
	grid, err := buildGrid(cfg, sizes)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "tab1",
		Title:  "Index size ratio mss=5 / mss=1",
		Header: []string{"sentences", "filter-based", "root-split", "subtree-interval"},
	}
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, coding := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
			r1 := grid[gridKey(n, coding, 1)].IndexBytes
			r5 := grid[gridKey(n, coding, 5)].IndexBytes
			row = append(row, fmtF(float64(r5)/float64(r1)))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper (Table 1): root-split grows least (12-15x), filter ~21-24x, interval ~48-59x")
	return res, nil
}
