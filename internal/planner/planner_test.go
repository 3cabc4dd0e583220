package planner

import (
	"errors"
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

// keyOf is the index key of the piece of q holding the given nodes.
func keyOf(t *testing.T, q *query.Query, nodes ...int) string {
	t.Helper()
	pat, _, err := q.SubPattern(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return string(pat.Key())
}

// TestWidenRootSplitPieces pins widen on A(B(C)(D)) at MSS 3, whose
// minRC cover is B(C)(D) rooted at B plus the single node A: a costed
// root-split plan grows A through A(B) to its cheapest superset, keeps
// the current key on a tie, stops at an absent key, and leaves the
// uncosted, ablation and subtree-interval plans at the cover's keys.
func TestWidenRootSplitPieces(t *testing.T) {
	q := mustParse(t, "A(B(C)(D))")
	a, ab, abc, abd, bcd := keyOf(t, q, 0), keyOf(t, q, 0, 1), keyOf(t, q, 0, 1, 2), keyOf(t, q, 0, 1, 3), keyOf(t, q, 1, 2, 3)
	// pieceAt returns the key and Est of the piece rooted at node 0.
	pieceAt := func(pl *Plan) PlanPiece {
		for _, pp := range pl.Pieces {
			if pp.Root == 0 {
				return pp
			}
		}
		t.Fatalf("no piece rooted at A in %v", pl.Pieces)
		return PlanPiece{}
	}
	for _, c := range []struct {
		name   string
		counts map[string]uint64
		want   string
		slots  []int
	}{
		{"cheapest superset", map[string]uint64{a: 100, ab: 40, abc: 30, abd: 10, bcd: 5}, abd, []int{0, 1, 3}},
		{"tie keeps the current key", map[string]uint64{a: 100, ab: 100, abc: 1, abd: 1, bcd: 5}, a, []int{0}},
		{"tie keeps the earlier candidate", map[string]uint64{a: 100, ab: 40, abc: 10, abd: 10, bcd: 5}, abc, []int{0, 1, 2}},
		{"absent key wins and stops growth", map[string]uint64{a: 100, abc: 1, abd: 1, bcd: 5}, ab, []int{0, 1}},
	} {
		pl, err := New(q, 3, postings.RootSplit, statsFor(c.counts))
		if err != nil {
			t.Fatal(err)
		}
		pp := pieceAt(pl)
		if string(pp.Key) != c.want || !slices.Equal(pp.Slots, c.slots) || pp.Est != c.counts[c.want] {
			t.Fatalf("%s: piece at A is %q slots %v est %d, want %q slots %v est %d",
				c.name, pp.Key, pp.Slots, pp.Est, c.want, c.slots, c.counts[c.want])
		}
		if len(pl.Pieces) != 2 || string(pl.Pieces[0].Key) != bcd || pl.Pieces[0].Root != 1 {
			t.Fatalf("%s: widening changed the cover: %v", c.name, pl.Pieces)
		}
		if want := min(pp.Est, 5); pl.EstRows != want {
			t.Fatalf("%s: EstRows %d, want %d", c.name, pl.EstRows, want)
		}
	}

	// Without costing, and under the other codings, the keys are the
	// cover's.
	cheap := statsFor(map[string]uint64{a: 100, ab: 1, abc: 1, abd: 1, bcd: 5})
	keys := func(pl *Plan) []string {
		var out []string
		for _, pp := range pl.Pieces {
			out = append(out, string(pp.Key))
		}
		return out
	}
	for _, coding := range []postings.Coding{postings.RootSplit, postings.SubtreeInterval, postings.FilterBased} {
		uncosted, err := New(q, 3, coding, nil)
		if err != nil {
			t.Fatal(err)
		}
		UseSyntacticOrder = true
		ablation, err := New(q, 3, coding, cheap)
		UseSyntacticOrder = false
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(keys(ablation), keys(uncosted)) {
			t.Fatalf("%v: ablation keys %q, uncosted %q", coding, keys(ablation), keys(uncosted))
		}
		if coding == postings.RootSplit {
			if !slices.Equal(keys(uncosted), []string{bcd, a}) {
				t.Fatalf("uncosted root-split keys %q, want the cover's %q", keys(uncosted), []string{bcd, a})
			}
			continue
		}
		costed, err := New(q, 3, coding, cheap)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(keys(costed), keys(uncosted)) {
			t.Fatalf("%v: costed keys %q, uncosted %q", coding, keys(costed), keys(uncosted))
		}
	}
}

// TestWidenCountsEachKeyOnce asserts one memo feeds widening and
// costing: on a query with twin pieces whose widening candidates repeat
// keys, New reads every distinct key's count exactly once, and a Count
// error on a candidate it would not choose still fails New.
func TestWidenCountsEachKeyOnce(t *testing.T) {
	q := mustParse(t, "A(B(C)(D))(B(C)(D))")
	calls := map[string]int{}
	stats := &Stats{Count: func(k subtree.Key) (uint64, error) {
		calls[string(k)]++
		return uint64(1000 - len(k)), nil // longer keys are rarer, so every piece grows
	}}
	pl, err := New(q, 3, postings.RootSplit, stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Pieces) != 3 || pl.Pieces[0].Key != pl.Pieces[1].Key {
		t.Fatalf("vacuous fixture: want twin pieces B(C)(D) and A, got %v", pl.Pieces)
	}
	for k, n := range calls {
		if n != 1 {
			t.Fatalf("Count(%q) called %d times, want once", k, n)
		}
	}
	// A, A(B) (both candidates), then A(B)(B), A(B(C)), A(B(D)) — the
	// twin B(C)(D) pieces read one key.
	if len(calls) != 6 {
		t.Fatalf("%d distinct keys counted, want 6: %v", len(calls), calls)
	}

	bad := keyOf(t, q, 0, 1, 3) // A(B(D)): a candidate, never the choice
	failing := &Stats{Count: func(k subtree.Key) (uint64, error) {
		if string(k) == bad {
			return 0, errors.New("corrupt count")
		}
		return 1 << 20 / uint64(len(k)), nil
	}}
	if _, err := New(q, 3, postings.RootSplit, failing); err == nil {
		t.Fatal("a Count error on a widening candidate did not fail New")
	}
}

// TestRepeatedRootSplitPieceDropped: on a root-split plan, a cover piece
// whose root and key equal an earlier piece's is dropped — the twin NN
// siblings of the WH query below cover as two NP(DT)(NN) pieces on one
// root. The join order still covers every piece left once, and the
// subtree-interval coding, whose relations bind every slot, keeps
// every piece.
func TestRepeatedRootSplitPieceDropped(t *testing.T) {
	q := mustParse(t, "S(NP(DT)(NN))(VP(VBZ)(NP(DT)(NN)(NN)))")
	covers, err := coverQuery(q, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	cover := 0
	for _, c := range covers {
		cover += len(c)
	}
	pl, err := New(q, 3, postings.RootSplit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Pieces) != cover-1 || len(pl.Order) != len(pl.Pieces) {
		t.Fatalf("uncosted: %d pieces and order %v from a cover of %d with one repeat", len(pl.Pieces), pl.Order, cover)
	}
	interval, err := New(q, 3, postings.SubtreeInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := coverQuery(q, 3, false); err != nil || len(interval.Pieces) != len(want[0]) {
		t.Fatalf("subtree-interval: %d pieces, cover %v (%v)", len(interval.Pieces), want, err)
	}
}
