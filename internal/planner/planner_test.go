package planner

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
)

// pieceLabel extracts the node label of a single-node piece key (the
// flattened form carries a size prefix, e.g. "1:B").
func pieceLabel(pp PlanPiece) string {
	k := string(pp.Key)
	if i := strings.Index(k, ":"); i >= 0 {
		return k[i+1:]
	}
	return k
}

// mustParse parses a query or fails the test.
func mustParse(t *testing.T, src string) *query.Query {
	t.Helper()
	q, err := query.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// statsFor builds a Stats counting the given keys' postings (0 for
// any other key).
func statsFor(counts map[string]uint64) *Stats {
	return &Stats{Count: func(k subtree.Key) (uint64, error) { return counts[string(k)], nil }}
}

// TestNewUncosted asserts that a nil-stats compile yields pieces, the
// coding's strategy and the syntactic connected order, but no
// estimates. The MSS=1 cover of A(B)(C) is built as B, C, A: the
// identity would join the siblings B and C with nothing binding their
// parent, so A is taken second.
func TestNewUncosted(t *testing.T) {
	pl, err := New(mustParse(t, "A(B)(C)"), 1, postings.RootSplit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Costed {
		t.Fatal("nil-stats plan reports Costed")
	}
	if pl.EstRows != 0 {
		t.Fatalf("uncosted plan carries an estimate: %d", pl.EstRows)
	}
	if got := []string{pieceLabel(pl.Pieces[0]), pieceLabel(pl.Pieces[1]), pieceLabel(pl.Pieces[2])}; !slices.Equal(got, []string{"B", "C", "A"}) {
		t.Fatalf("cover built as %v, want B, C, A", got)
	}
	if !slices.Equal(pl.Order, []int{0, 2, 1}) {
		t.Fatalf("uncosted order %v, want the syntactic connected order [0 2 1]", pl.Order)
	}
	if pl.Strategy != StrategyStream {
		t.Fatalf("uncosted root-split plan has strategy %v, want stream", pl.Strategy)
	}
	if len(pl.Pieces) != 3 {
		t.Fatalf("MSS=1 cover of a 3-node query has %d pieces, want 3", len(pl.Pieces))
	}
	for _, pp := range pl.Pieces {
		if pp.Est != 0 {
			t.Fatalf("uncosted piece %q has estimate %d", pp.Key, pp.Est)
		}
	}
}

// TestCostOrderSmallestFirst asserts the core ordering property: the
// globally cheapest piece leads, and every subsequent piece is
// slot-connected to the already-bound set.
func TestCostOrderSmallestFirst(t *testing.T) {
	q := mustParse(t, "A(B)(C)")
	pl, err := New(q, 1, postings.RootSplit, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Identify which piece holds which label via its key text.
	est := map[string]uint64{}
	for _, pp := range pl.Pieces {
		switch pieceLabel(pp) {
		case "A":
			est[string(pp.Key)] = 1000
		case "B":
			est[string(pp.Key)] = 500
		case "C":
			est[string(pp.Key)] = 2
		}
	}
	if len(est) != 3 {
		t.Fatalf("expected single-label keys, got pieces %v", pl.Pieces)
	}
	pl, err = New(q, 1, postings.RootSplit, statsFor(est))
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Costed {
		t.Fatal("plan with stats is not costed")
	}
	if len(pl.Order) != 3 {
		t.Fatalf("order %v, want a full permutation of 3", pl.Order)
	}
	first := pl.Pieces[pl.Order[0]]
	if pieceLabel(first) != "C" {
		t.Fatalf("order starts with %q (est %d), want the cheapest piece C", first.Key, first.Est)
	}
	// B (est 500) is NOT connected to C directly (they are siblings whose
	// shared structure is the unbound parent A), so A must come second
	// despite its larger estimate — connectivity trumps cost.
	second := pl.Pieces[pl.Order[1]]
	if pieceLabel(second) != "A" {
		t.Fatalf("order's second piece is %q, want the connected A", second.Key)
	}
	if pl.EstRows != 2 {
		t.Fatalf("EstRows %d, want the minimum piece estimate 2", pl.EstRows)
	}
}

// TestChooseStrategy asserts the strategy follows from the coding alone
// — filter-based coding filters, the joining codings stream — whatever
// the estimates and the piece count.
func TestChooseStrategy(t *testing.T) {
	heavy := statsFor(map[string]uint64{"A": 1 << 20, "B": 1 << 20, "C": 1 << 20})
	for _, c := range []struct {
		coding postings.Coding
		want   Strategy
	}{
		{postings.FilterBased, StrategyFilter},
		{postings.RootSplit, StrategyStream},
		{postings.SubtreeInterval, StrategyStream},
	} {
		for _, src := range []string{"A(B)(C)", "A"} {
			for _, stats := range []*Stats{nil, statsFor(map[string]uint64{"A": 10, "B": 10, "C": 10}), heavy} {
				pl, err := New(mustParse(t, src), 1, c.coding, stats)
				if err != nil {
					t.Fatal(err)
				}
				if pl.Strategy != c.want {
					t.Errorf("%v %q costed=%v: strategy %v, want %v", c.coding, src, pl.Costed, pl.Strategy, c.want)
				}
			}
		}
	}
}

// TestUseSyntacticOrder asserts the ablation switch: costing is skipped
// entirely and the order pins to the syntactic connected order — the
// identity for A(B(C)), whose cover is built top-down, and the uncosted
// order [0 2 1] for A(B)(C), whose identity does not connect (see
// TestNewUncosted) — whatever the statistics say.
func TestUseSyntacticOrder(t *testing.T) {
	UseSyntacticOrder = true
	defer func() { UseSyntacticOrder = false }()
	for _, c := range []struct {
		src  string
		want []int
	}{{"A(B(C))", []int{0, 1, 2}}, {"A(B)(C)", []int{0, 2, 1}}} {
		pl, err := New(mustParse(t, c.src), 1, postings.RootSplit,
			statsFor(map[string]uint64{"1:A": 1000, "1:B": 500, "1:C": 2}))
		if err != nil {
			t.Fatal(err)
		}
		if pl.Costed {
			t.Fatalf("%s: ablation plan reports Costed", c.src)
		}
		if !slices.Equal(pl.Order, c.want) {
			t.Fatalf("%s: ablation order %v, want %v", c.src, pl.Order, c.want)
		}
	}
}

// TestCostOrderDescendant asserts costed ordering on a //-query, the
// shape the skewed-corpus benchmark exercises: the rare piece leads.
func TestCostOrderDescendant(t *testing.T) {
	q := mustParse(t, "S(//NN)(//RB)")
	pl, err := New(q, 3, postings.SubtreeInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := map[string]uint64{}
	sawRB := false
	for _, pp := range pl.Pieces {
		if pieceLabel(pp) == "RB" {
			est[string(pp.Key)] = 3
			sawRB = true
		} else {
			est[string(pp.Key)] = 50000
		}
	}
	if !sawRB {
		t.Fatalf("no RB piece in %v", pl.Pieces)
	}
	pl, err = New(q, 3, postings.SubtreeInterval, statsFor(est))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Order) != len(pl.Pieces) {
		t.Fatalf("order %v does not cover %d pieces", pl.Order, len(pl.Pieces))
	}
	if got := pieceLabel(pl.Pieces[pl.Order[0]]); got != "RB" {
		t.Fatalf("costed order leads with %q, want the rare RB", got)
	}
	seen := make(map[int]bool)
	for _, pi := range pl.Order {
		if pi < 0 || pi >= len(pl.Pieces) || seen[pi] {
			t.Fatalf("order %v is not a permutation", pl.Order)
		}
		seen[pi] = true
	}
}
