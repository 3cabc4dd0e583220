// Package experiments regenerates every table and figure of the
// paper's evaluation (§6) over the synthetic corpus. Each driver
// produces a Result whose rows mirror the rows/series of the paper;
// absolute numbers differ from the paper's testbed, but orderings and
// growth shapes are the reproduction targets (runs are reproduced with
// siexp -exp all). Corpus sizes default to laptop scale and grow with Config.
// Scale to approach the paper's.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/corpusgen"
	"repro/internal/lingtree"
)

// Config controls experiment scale and placement.
type Config struct {
	// Scale multiplies every corpus size; 1 reproduces shapes on a
	// laptop in minutes, 10 approaches the paper's largest datasets.
	Scale int
	// Seed fixes the synthetic corpus.
	Seed uint64
	// WorkDir receives index directories; empty means a temp dir.
	WorkDir string

	// Optional per-experiment size overrides (zero = derive from
	// Scale). Benchmarks use these to bound individual runs.
	Fig2Sizes        []int // corpus sizes for Figure 2
	Fig3MinNodes     int   // node sample for Figure 3
	GridSizes        []int // corpus sizes for Figures 8-10, Table 1
	RuntimeSentences int   // corpus size for Figures 11-12, Table 2
	RuntimeReps      int   // repetitions per query (paper: 5)
	Fig13Sizes       []int // corpus sizes for Figure 13
}

func (c Config) normalize() Config {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 2012 // VLDB 2012
	}
	return c
}

func (c Config) workDir() (string, func(), error) {
	if c.WorkDir != "" {
		return c.WorkDir, func() {}, os.MkdirAll(c.WorkDir, 0o755)
	}
	dir, err := os.MkdirTemp("", "si-exp-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// Result is one regenerated table or figure.
type Result struct {
	ID     string     // experiment identifier (fig2, tab3, ...)
	Title  string     // caption matching the paper's
	Header []string   // column names
	Rows   [][]string // one row per corpus size / query class / coding
	Notes  []string   // caveats and reproduction remarks
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// corpus returns the first n trees of the experiment corpus.
func (c Config) corpus(n int) []*lingtree.Tree {
	return corpusgen.New(c.Seed).Trees(n)
}

// heldOut returns trees not part of any indexed corpus (the FB query
// source).
func (c Config) heldOut(n int) []*lingtree.Tree {
	return corpusgen.New(c.Seed + 1).Trees(n)
}

// Runner is the registry entry for one experiment.
type Runner struct {
	ID    string                        // identifier used by siexp -exp
	Title string                        // caption matching the paper's
	Run   func(Config) (*Result, error) // driver regenerating the result
}

// All lists every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig2", "Number of index keys (unique subtrees) vs input size", Fig2},
		{"fig3", "Average number of subtrees vs branching factor", Fig3},
		{"fig8", "Subtree index size (bytes) per coding and mss", Fig8},
		{"tab1", "Ratio of index size at mss=5 to mss=1", Table1},
		{"fig9", "Total number of postings per coding and mss", Fig9},
		{"fig10", "Index construction time per coding and mss", Fig10},
		{"fig11", "Query runtime by number of matches", Fig11},
		{"fig12", "Query runtime by query size", Fig12},
		{"tab2", "Comparison with ATreeGrep and frequency-based index", Table2},
		{"fig13", "Scalability of query runtime with corpus size", Fig13},
		{"tab3", "Average joins per WH group (optimalCover vs minRC)", Table3},
	}
}

// Find returns the runner with the given id.
func Find(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

func fmtBytes(n int64) string { return fmt.Sprintf("%d", n) }

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

func fmtF(f float64) string { return fmt.Sprintf("%.3f", f) }

func subdir(base string, parts ...string) string {
	return filepath.Join(append([]string{base}, parts...)...)
}
