package join_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/join"
	"repro/internal/lingtree"
	"repro/internal/planner"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/workload"
)

// The golden-counter differential test pins the join kernel's
// observable behaviour to the numbers the previous kernel produced:
// testdata/golden_counters.json was generated at the commit before the
// compiled join program landed (go test -run TestGoldenCounters
// -update-golden), and every later kernel must reproduce each tuple —
// match-list hash, count, join rows, entries read — bit for bit. Work
// counters are the index's first-class cost, so a faster kernel that
// moves one of them is a different algorithm, not an optimization.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_counters.json from this kernel")

const (
	goldenPath  = "testdata/golden_counters.json"
	goldenSeed  = 20120827
	goldenTrees = 2000
	goldenMSS   = 3
	goldenLimit = 10 // matches pulled by the stopped-stream mode
)

// goldenTuple is one (query, coding, mode) observation. Hash is the
// FNV-64a of the match list ("" where the mode returns none).
type goldenTuple struct {
	Hash  string `json:"hash,omitempty"`
	Count int    `json:"count"`
	Rows  int    `json:"rows"`
	Read  int    `json:"read,omitempty"`
}

// goldenQuery is the four modes of one query under one coding; Absent
// marks a query some cover key of which the corpus never produced.
type goldenQuery struct {
	Query   string      `json:"query"`
	Absent  bool        `json:"absent,omitempty"`
	Run     goldenTuple `json:"run"`
	Count   goldenTuple `json:"run_count_only"`
	Drain   goldenTuple `json:"stream_drained"`
	Limited goldenTuple `json:"stream_limit10"`
}

type goldenFile struct {
	Seed    uint64                   `json:"seed"`
	Trees   int                      `json:"trees"`
	MSS     int                      `json:"mss"`
	Codings map[string][]goldenQuery `json:"codings"`
}

func hashMatches(ms []join.Match) string {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range ms {
		binary.LittleEndian.PutUint32(b[:4], m.TID)
		binary.LittleEndian.PutUint32(b[4:], m.Root)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenQueries is the paper's 48 WH queries followed by one 70-query
// FB set cut from held-out trees of the same generator.
func goldenQueries(t *testing.T, trees []*lingtree.Tree) []*query.Query {
	t.Helper()
	var qs []*query.Query
	wh := workload.WHQuerySet()
	for _, g := range workload.WHGroups {
		qs = append(qs, wh[g]...)
	}
	gen := corpusgen.New(goldenSeed)
	held := make([]*lingtree.Tree, 400)
	for i := range held {
		held[i] = gen.Tree(1<<20 + i)
	}
	fb := workload.FBQuerySet(workload.NewLabelClassifier(trees), held, goldenSeed)
	for _, cls := range workload.FBClasses {
		qs = append(qs, fb[cls]...)
	}
	return qs
}

// decodeRelation turns one piece's posting blob into a join relation
// the way core's block fetch does (automorphism expansion included).
func decodeRelation(t *testing.T, pp planner.PlanPiece, coding postings.Coding, blob []byte) join.Relation {
	t.Helper()
	_, n := binary.Uvarint(blob)
	if n <= 0 {
		t.Fatalf("%s: corrupt count prefix", pp.Key)
	}
	body := blob[n:]
	rel := join.Relation{Name: string(pp.Key)}
	switch coding {
	case postings.RootSplit:
		rel.Slots = []int{pp.Root}
		it := postings.NewRootIterator(body)
		for it.Next() {
			e := it.Entry()
			rel.Entries = append(rel.Entries, postings.IntervalEntry{TID: e.TID, Nodes: []postings.NodeRef{e.NodeRef}})
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	case postings.SubtreeInterval:
		rel.Slots = pp.Slots
		it := postings.NewIntervalIterator(body)
		for it.Next() {
			e := it.Entry()
			if len(pp.Perms) <= 1 {
				rel.Entries = append(rel.Entries, e)
				continue
			}
			for _, pm := range pp.Perms {
				nodes := make([]postings.NodeRef, len(e.Nodes))
				for i, src := range pm {
					nodes[i] = e.Nodes[src]
				}
				rel.Entries = append(rel.Entries, postings.IntervalEntry{TID: e.TID, Nodes: nodes})
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// scratchCursor serves a relation's entries through one reused node
// slice, holding the stream to the cursor contract it documents: an
// entry's Nodes are only valid until the next call to Next.
type scratchCursor struct {
	entries []postings.IntervalEntry
	i       int
	scratch []postings.NodeRef
}

func (c *scratchCursor) Next() (postings.IntervalEntry, bool) {
	if c.i >= len(c.entries) {
		return postings.IntervalEntry{}, false
	}
	e := c.entries[c.i]
	c.i++
	c.scratch = append(c.scratch[:0], e.Nodes...)
	return postings.IntervalEntry{TID: e.TID, Nodes: c.scratch}, true
}

func (c *scratchCursor) Err() error { return nil }

// streamTuple drains a stream over rels up to limit matches (0 = all).
func streamTuple(t *testing.T, q *query.Query, rels []join.Relation, opt join.Options, limit int) goldenTuple {
	t.Helper()
	in := make([]join.StreamRelation, len(rels))
	for i, r := range rels {
		in[i] = join.StreamRelation{Name: r.Name, Slots: r.Slots, Cursor: &scratchCursor{entries: r.Entries}}
	}
	s, err := join.NewStreamOpts(context.Background(), q, in, opt)
	if err != nil {
		t.Fatal(err)
	}
	var ms []join.Match
	for limit == 0 || len(ms) < limit {
		m, ok := s.Next()
		if !ok {
			break
		}
		ms = append(ms, m)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return goldenTuple{Hash: hashMatches(ms), Count: len(ms), Rows: s.Rows(), Read: s.EntriesRead()}
}

// observe evaluates every golden query under one coding in all four
// modes over a freshly built index of the seeded corpus.
func observe(t *testing.T, trees []*lingtree.Tree, qs []*query.Query, coding postings.Coding) []goldenQuery {
	t.Helper()
	dir := t.TempDir()
	meta, err := core.Build(dir, trees, core.Options{MSS: goldenMSS, Coding: coding})
	if err != nil {
		t.Fatal(err)
	}
	bt, err := btree.Open(filepath.Join(dir, core.IndexFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()

	out := make([]goldenQuery, 0, len(qs))
	for _, q := range qs {
		pl, err := planner.New(q, goldenMSS, coding, meta.KeyStats)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		g := goldenQuery{Query: q.String()}
		rels := make([]join.Relation, len(pl.Pieces))
		for i, pp := range pl.Pieces {
			blob, found, err := bt.Get([]byte(pp.Key))
			if err != nil {
				t.Fatal(err)
			}
			if !found {
				g.Absent = true
				break
			}
			rels[i] = decodeRelation(t, pp, coding, append([]byte(nil), blob...))
		}
		if g.Absent {
			out = append(out, g)
			continue
		}
		opt := join.Options{Order: pl.Order, NoStack: pl.Strategy == planner.StrategyBlock}
		ms, info, err := join.Run(context.Background(), pl.Query, rels, opt)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		g.Run = goldenTuple{Hash: hashMatches(ms), Count: info.Count, Rows: info.Rows}
		opt.CountOnly = true
		ms, info, err = join.Run(context.Background(), pl.Query, rels, opt)
		if err != nil || ms != nil {
			t.Fatalf("%s count-only: matches %v, err %v", q, ms, err)
		}
		g.Count = goldenTuple{Count: info.Count, Rows: info.Rows}
		opt.CountOnly = false
		g.Drain = streamTuple(t, pl.Query, rels, opt, 0)
		g.Limited = streamTuple(t, pl.Query, rels, opt, goldenLimit)
		out = append(out, g)
	}
	return out
}

// TestGoldenCounters asserts the kernel reproduces, for 118 queries ×
// two joining codings × four evaluation modes, exactly the matches and
// work counters recorded before it was rewritten.
func TestGoldenCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 2000-tree indexes")
	}
	trees := corpusgen.New(goldenSeed).Trees(goldenTrees)
	qs := goldenQueries(t, trees)
	got := goldenFile{Seed: goldenSeed, Trees: goldenTrees, MSS: goldenMSS, Codings: map[string][]goldenQuery{}}
	for _, coding := range []postings.Coding{postings.RootSplit, postings.SubtreeInterval} {
		got.Codings[coding.String()] = observe(t, trees, qs, coding)
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Seed != got.Seed || want.Trees != got.Trees || want.MSS != got.MSS {
		t.Fatalf("golden file is for seed %d / %d trees / mss %d", want.Seed, want.Trees, want.MSS)
	}
	for coding, gqs := range got.Codings {
		wqs := want.Codings[coding]
		if len(wqs) != len(gqs) {
			t.Fatalf("%s: %d queries, golden has %d", coding, len(gqs), len(wqs))
		}
		evaluated := 0
		for i, g := range gqs {
			if g != wqs[i] {
				t.Errorf("%s %s:\n got  %+v\n want %+v", coding, g.Query, g, wqs[i])
			}
			if !g.Absent {
				evaluated++
			}
		}
		if evaluated < len(gqs)/2 {
			t.Errorf("%s: only %d of %d queries have all their keys in the corpus", coding, evaluated, len(gqs))
		}
	}
}
