package repro_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/planner"
	"repro/si"
)

// skewQuery pairs one frequent piece (NN, in every fixture tree) with
// one rare piece (RB, in exactly 2 of 400 trees): the shape where a
// cost-based join order pays off hardest, because fetching the rare
// piece first aborts three of the four shards after a single point
// read and keeps the joining shard's intermediate rows tiny.
const skewQuery = "S(//NN)(//RB)"

// loadSkewCorpus reads the committed skewed-cardinality fixture.
func loadSkewCorpus(tb testing.TB) []*si.Tree {
	tb.Helper()
	f, err := os.Open("testdata/skew.trees")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	trees, err := si.ReadTrees(f)
	if err != nil {
		tb.Fatal(err)
	}
	if len(trees) != 400 {
		tb.Fatalf("skew fixture holds %d trees, want 400", len(trees))
	}
	return trees
}

// buildSkewIndex builds the fixture as a 4-shard index so the rare RB
// trees (tids 0-1) land in shard 0 only.
func buildSkewIndex(tb testing.TB) string {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "ix")
	opts := si.DefaultBuildOptions()
	opts.Shards = 4
	if _, err := si.Build(dir, loadSkewCorpus(tb), opts); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// runSkew evaluates the skew query once under the given planner mode,
// returning the matches with the physical posting fetches and join
// rows the evaluation cost.
func runSkew(tb testing.TB, dir string, syntactic bool) (matches []si.Match, fetches, joinRows uint64) {
	tb.Helper()
	planner.UseSyntacticOrder = syntactic
	defer func() { planner.UseSyntacticOrder = false }()
	ix, err := si.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer ix.Close()
	base := ix.Stats().PostingFetches
	res, err := ix.Search(context.Background(), skewQuery)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Matches, ix.Stats().PostingFetches - base, res.Stats.JoinRows
}

// TestPlannerSkewCostOrder is the planner's headline claim on the
// committed fixture: cost-ordered execution must report strictly fewer
// posting fetches and no more join rows than the syntactic-order
// ablation, while returning the identical matches. (The rows tie: the
// drained stream stops at the rare piece's exhausted list under either
// order, so what the cost order saves is the point reads of the shards
// where that piece is absent.) The same counters are reported by
// BenchmarkPlannerSkew and gated in BENCH_baseline.json.
func TestPlannerSkewCostOrder(t *testing.T) {
	dir := buildSkewIndex(t)
	costM, costFetches, costRows := runSkew(t, dir, false)
	synM, synFetches, synRows := runSkew(t, dir, true)

	if len(costM) == 0 {
		t.Fatalf("%q matches nothing on the fixture", skewQuery)
	}
	if !reflect.DeepEqual(costM, synM) {
		t.Fatalf("cost-ordered matches differ from syntactic: %d vs %d", len(costM), len(synM))
	}
	if costFetches >= synFetches {
		t.Fatalf("cost order issued %d posting fetches, syntactic %d; want strictly fewer", costFetches, synFetches)
	}
	if costRows > synRows {
		t.Fatalf("cost order produced %d join rows, syntactic %d; want no more", costRows, synRows)
	}
}

// BenchmarkPlannerSkew quantifies statistics-driven planning on the
// committed skewed fixture, reporting the deterministic work counters
// (guarded in BENCH_baseline.json) alongside wall clock for both modes.
func BenchmarkPlannerSkew(b *testing.B) {
	dir := buildSkewIndex(b)
	for _, mode := range []struct {
		name      string
		syntactic bool
	}{{"cost", false}, {"syntactic", true}} {
		b.Run(mode.name, func(b *testing.B) {
			_, fetches, rows := runSkew(b, dir, mode.syntactic)
			planner.UseSyntacticOrder = mode.syntactic
			defer func() { planner.UseSyntacticOrder = false }()
			ix, err := si.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			b.ResetTimer() // also clears extras, so the counters report below
			for i := 0; i < b.N; i++ {
				if _, err := ix.Search(context.Background(), skewQuery); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fetches), "fetches/op")
			b.ReportMetric(float64(rows), "joinrows/op")
		})
	}
}
