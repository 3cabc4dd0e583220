package main

// layers.go is the benchmark's only door into the program under test:
// every import of repro/... lives here, so an API move in a later PR
// is a one-file fix. The rest of bench/ sees trees, queries and
// matches through the aliases below and reaches each layer through one
// small function per public entry point it times.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/cover"
	"repro/internal/join"
	"repro/internal/lingtree"
	"repro/internal/match"
	"repro/internal/pager"
	"repro/internal/planner"
	"repro/internal/postings"
	qry "repro/internal/query"
	"repro/internal/server"
	qsets "repro/internal/workload"
	"repro/si"
)

type (
	tree      = lingtree.Tree
	parsedQ   = qry.Query
	hit       = join.Match // (TID, Root)
	plan      = planner.Plan
	entry     = postings.IntervalEntry
	liveIndex = si.Index
)

// sisrvPackage is what `go build` compiles into the server under test.
const sisrvPackage = "repro/cmd/sisrv"

// sisrvDefaults mirrors cmd/sisrv's flag defaults for the in-process
// traced run, which opens the index the way an unconfigured sisrv does
// (plan cache on, mmap auto, no page cache, 30 s evaluation timeout).
var sisrvDefaults = struct {
	open    si.OpenOptions
	timeout time.Duration
}{si.OpenOptions{PlanCacheSize: 4096}, 30 * time.Second}

// genTrees returns trees [lo, hi) of the seeded corpus; the generator
// is random-access, so any range is a slice of the same corpus.
func genTrees(seed uint64, lo, hi int) []*tree {
	g := corpusgen.New(seed)
	out := make([]*tree, hi-lo)
	for i := range out {
		out[i] = g.Tree(lo + i)
	}
	return out
}

// writeTrees renders trees in the bracketed form /append reads.
func writeTrees(w io.Writer, trees []*tree) error {
	for _, t := range trees {
		if err := lingtree.WriteBracketed(w, t); err != nil {
			return err
		}
	}
	return nil
}

// buildIndex builds the workload's index exactly as a user would:
// si.Build with the recommended options (MSS 3, root-split).
func buildIndex(dir string, trees []*tree, shards int) error {
	opts := si.DefaultBuildOptions()
	opts.Shards = shards
	_, err := si.Build(dir, trees, opts)
	return err
}

// openIndex opens dir the way an unconfigured sisrv does.
func openIndex(dir string) (*liveIndex, error) { return si.OpenWith(dir, sisrvDefaults.open) }

// newHandler is sisrv's HTTP handler over ix with default limits.
func newHandler(ix *liveIndex, dir string) http.Handler {
	return server.New(ix, server.Config{Timeout: sisrvDefaults.timeout, Dir: dir})
}

// whQueries returns the paper's 48 WH structural queries in a fixed
// order (group order of the paper, then definition order).
func whQueries() []string {
	sets := qsets.WHQuerySet()
	var out []string
	for _, g := range qsets.WHGroups {
		for _, q := range sets[g] {
			out = append(out, q.String())
		}
	}
	return out
}

// fbQueries extracts up to n distinct lexical FB-style queries from
// the held-out trees: the seven L..HML classes in equal shares, sizes
// 1..10, deduplicated by canonical form. classify is the corpus sample
// label frequencies are ranked on. seen carries canonical forms
// already taken, so successive calls stay disjoint.
func fbQueries(classify, held []*tree, seed uint64, n int, seen map[string]bool) []string {
	lc := qsets.NewLabelClassifier(classify)
	var out []string
	// Each draw yields at most 70 queries; small sizes collide often,
	// so the draw budget is generous but bounded.
	for draw := uint64(0); len(out) < n && draw < uint64(n/4+64); draw++ {
		set := qsets.FBQuerySet(lc, held, seed*1_000_003+draw)
		for _, cls := range qsets.FBClasses {
			for _, q := range set[cls] {
				c := q.Canonical()
				if seen[c] || len(out) >= n {
					continue
				}
				seen[c] = true
				out = append(out, q.String())
			}
		}
	}
	return out
}

// oracle answers queries exactly over a small corpus prefix with the
// backtracking matcher of internal/match. A label → trees inverted
// list only skips trees that cannot match (a tree must contain every
// label of the query); the matcher alone decides matches.
type oracle struct {
	trees   []*tree
	byLabel map[string][]int
}

func newOracle(trees []*tree) *oracle {
	o := &oracle{trees: trees, byLabel: map[string][]int{}}
	for i, t := range trees {
		seen := map[string]bool{}
		for n := range t.Nodes {
			l := t.Nodes[n].Label
			if !seen[l] {
				seen[l] = true
				o.byLabel[l] = append(o.byLabel[l], i)
			}
		}
	}
	return o
}

// exact returns the query's matches over the oracle trees in (tid,
// root) order, and whether cover-based evaluation is exact for it:
// when two siblings could bind the same tree node the engine returns a
// superset (ROADMAP 5a), so such queries are checked as engine ⊇ exact.
func (o *oracle) exact(src string) (hits []hit, exact bool, err error) {
	q, err := qry.Parse(src)
	if err != nil {
		return nil, false, err
	}
	cands := o.byLabel[q.Nodes[0].Label]
	for i := range q.Nodes {
		if l := o.byLabel[q.Nodes[i].Label]; len(l) < len(cands) {
			cands = l
		}
	}
	m := match.New(q)
	for _, ti := range cands {
		t := o.trees[ti]
		for _, root := range m.Roots(t) {
			hits = append(hits, hit{TID: uint32(t.TID), Root: uint32(t.Nodes[root].Pre)})
		}
	}
	return hits, !siblingsMayCollide(q), nil
}

// siblingsMayCollide reports whether some node has two children with
// the same label on the same axis. Cover pieces cannot keep such
// siblings on distinct tree nodes, so the engine over-reports — not
// only for identical sibling patterns (Query.HasIdenticalSiblingPatterns,
// a subset of this class) but whenever one sibling's pattern embeds
// where the other's does, e.g. ADVP(RB)(RB(only)).
func siblingsMayCollide(q *parsedQ) bool {
	for v := range q.Nodes {
		seen := map[string]bool{}
		for _, c := range q.Nodes[v].Children {
			k := q.Nodes[c].Axis.String() + q.Nodes[c].Label
			if seen[k] {
				return true
			}
			seen[k] = true
		}
	}
	return false
}

// buildTimes are the build-phase timings an index records about itself.
type buildTimes struct {
	extract, load time.Duration
	trees         int
}

// probeSet opens an index's leaf files directly, beside the engine, so
// the traced run can time each layer's public entry points on a
// query's real keys and posting blobs.
type probeSet struct {
	leaves []*btree.Tree
	pagers []*pager.File
	mss    int
	coding postings.Coding
	stats  *planner.Stats
	built  buildTimes
}

// openProbes opens every leaf of a freshly built (single-directory or
// sharded) index with sisrv's default read backend (mmap).
func openProbes(dir string) (*probeSet, error) {
	raw, err := os.ReadFile(filepath.Join(dir, core.MetaFileName))
	if err != nil {
		return nil, err
	}
	var meta core.Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("probe: %s: %w", core.MetaFileName, err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*", core.IndexFileName))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		paths = []string{filepath.Join(dir, core.IndexFileName)}
	}
	p := &probeSet{mss: meta.MSS, coding: meta.Coding, stats: meta.KeyStats,
		built: buildTimes{time.Duration(meta.ExtractNanos), time.Duration(meta.LoadNanos), meta.NumTrees}}
	for _, path := range paths {
		bt, err := btree.OpenWith(path, btree.Options{Mmap: true})
		if err != nil {
			p.close()
			return nil, err
		}
		p.leaves = append(p.leaves, bt)
		pf, err := pager.OpenWith(path, pager.OpenOptions{Mmap: true})
		if err != nil {
			p.close()
			return nil, err
		}
		p.pagers = append(p.pagers, pf)
	}
	return p, nil
}

func (p *probeSet) close() {
	for _, bt := range p.leaves {
		bt.Close()
	}
	for _, pf := range p.pagers {
		pf.Close()
	}
}

// parse is the query layer's entry point.
func parse(src string) (*parsedQ, error) { return qry.Parse(src) }

// decompose is the cover layer's entry point as the planner drives it
// for root-split coding on //-free queries (all this benchmark
// issues): one minimum root-split cover per child component.
func (p *probeSet) decompose(q *parsedQ) (pieces int, err error) {
	for _, cr := range q.ComponentRoots() {
		c, err := cover.MinRootSplit(q, q.ChildComponent(cr), p.mss)
		if err != nil {
			return 0, err
		}
		pieces += len(c)
	}
	return pieces, nil
}

// plan is the planner layer's entry point (it decomposes again
// internally; the trace subtracts the cover probe from it).
func (p *probeSet) plan(q *parsedQ) (*plan, error) {
	return planner.New(q, p.mss, p.coding, p.stats)
}

// get is the btree layer's entry point: one point lookup of a cover
// key in leaf li. pages is the page reads the lookup needs — the
// tree's height plus the overflow chain of a value too large to share
// a leaf page (the builder's half-page rule).
func (p *probeSet) get(li int, key string) (blob []byte, pages int, err error) {
	bt := p.leaves[li]
	blob, found, err := bt.Get([]byte(key))
	if err != nil || !found {
		return nil, int(bt.Stats().Height), err
	}
	pageSize := p.pagers[li].PageSize()
	pages = int(bt.Stats().Height)
	if 1+uvarintLen(len(key))+len(key)+uvarintLen(len(blob))+len(blob) > pageSize/2 {
		pages += (len(blob) + pageSize - 5) / (pageSize - 4)
	}
	return blob, pages, nil
}

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// readPages is the pager layer's entry point: n page reads of leaf li
// spread over the file by a fixed stride, borrowed and released as the
// B+Tree does.
func (p *probeSet) readPages(li, n int, from uint32) error {
	pf := p.pagers[li]
	last := pf.NumPages() - 1
	if last < 1 {
		return nil
	}
	for i := 0; i < n; i++ {
		id := 1 + (from+uint32(i)*7919)%last
		_, release, err := pf.ReadPage(id)
		if err != nil {
			return err
		}
		release()
	}
	return nil
}

// payload strips a posting blob's count prefix.
func payload(blob []byte) (body []byte, count int, err error) {
	c, n := binary.Uvarint(blob)
	if n <= 0 {
		return nil, 0, fmt.Errorf("probe: corrupt posting count")
	}
	return blob[n:], int(c), nil
}

// decode is the postings layer's materializing entry point: a
// root-split blob decoded into join-relation form, as core's block
// fetch does.
func decode(blob []byte, arena *postings.RefArena) ([]entry, error) {
	body, count, err := payload(blob)
	if err != nil {
		return nil, err
	}
	out := make([]entry, 0, count)
	it := postings.NewRootIterator(body)
	for it.Next() {
		e := it.Entry()
		nodes := arena.Take(1)
		nodes[0] = e.NodeRef
		out = append(out, entry{TID: e.TID, Nodes: nodes})
	}
	return out, it.Err()
}

// decodeLazy is the postings layer's streaming entry point: the first
// share of a blob's entries pulled one at a time through the cursor
// the streaming join reads from. It returns how many it pulled.
func decodeLazy(blob []byte, share float64) (int, error) {
	body, count, err := payload(blob)
	if err != nil {
		return 0, err
	}
	c := &lazyCursor{it: postings.NewRootIterator(body)}
	n, want := 0, int(share*float64(count)+0.5)
	for n < want {
		if _, ok := c.Next(); !ok {
			break
		}
		n++
	}
	return n, c.Err()
}

// newArena returns the decode arena one query evaluation shares.
func newArena() *postings.RefArena { return &postings.RefArena{} }

// joinRun is the join layer's materializing entry point on decoded
// relations rels[i] of plan piece i.
func joinRun(ctx context.Context, pl *plan, rels [][]entry, countOnly bool) (count, rows int, err error) {
	in := make([]join.Relation, len(rels))
	for i, pp := range pl.Pieces {
		in[i] = join.Relation{Name: string(pp.Key), Slots: []int{pp.Root}, Entries: rels[i]}
	}
	_, info, err := join.Run(ctx, pl.Query, in, join.Options{
		CountOnly: countOnly, Order: pl.Order, NoStack: pl.Strategy == planner.StrategyBlock,
	})
	return info.Count, info.Rows, err
}

// lazyCursor decodes a root-split blob entry by entry on demand, as
// core's streaming cursor does.
type lazyCursor struct {
	it    *postings.RootIterator
	arena postings.RefArena
}

func (c *lazyCursor) Next() (entry, bool) {
	if !c.it.Next() {
		return entry{}, false
	}
	nodes := c.arena.Take(1)
	nodes[0] = c.it.Entry().NodeRef
	return entry{TID: c.it.Entry().TID, Nodes: nodes}, true
}

func (c *lazyCursor) Err() error { return c.it.Err() }

// joinStream is the join layer's incremental entry point: lazily
// decoded blobs joined until want matches are out (want <= 0 drains).
// read is the posting entries the stream decoded, rows its join work.
func joinStream(ctx context.Context, pl *plan, blobs [][]byte, want int) (got, read, rows int, err error) {
	in := make([]join.StreamRelation, len(blobs))
	for i, pp := range pl.Pieces {
		body, _, err := payload(blobs[i])
		if err != nil {
			return 0, 0, 0, err
		}
		in[i] = join.StreamRelation{Name: string(pp.Key), Slots: []int{pp.Root},
			Cursor: &lazyCursor{it: postings.NewRootIterator(body)}}
	}
	s, err := join.NewStreamOpts(ctx, pl.Query, in, join.Options{
		Order: pl.Order, NoStack: pl.Strategy == planner.StrategyBlock,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	//silint:ignore ctxloop s.Next observes ctx: the stream polls cancellation per block and surfaces it via s.Err
	for want <= 0 || got < want {
		if _, ok := s.Next(); !ok {
			break
		}
		got++
	}
	return got, s.EntriesRead(), s.Rows(), s.Err()
}

// searched is what one in-process si.Search reports about itself.
type searched struct {
	count, shards int
	fetches, rows uint64
	cacheHit      bool
	strategy      string
	est, actual   uint64 // explain: Σ piece estimates, Σ entries decoded
}

// search is the core layer's entry point, shaped like the workload's
// HTTP request: limit > 0 for /search?limit=, countOnly for /count.
func search(ctx context.Context, ix *liveIndex, src string, limit int, countOnly, explain bool) (searched, error) {
	var opts []si.SearchOption
	if countOnly {
		opts = append(opts, si.WithCountOnly())
	} else if limit > 0 {
		opts = append(opts, si.WithLimit(limit))
	}
	if explain {
		opts = append(opts, si.WithExplain())
	}
	res, err := ix.Search(ctx, src, opts...)
	if err != nil {
		return searched{}, err
	}
	out := searched{count: res.Count, shards: res.Stats.ShardsConsulted, fetches: res.Stats.PostingFetches,
		rows: res.Stats.JoinRows, cacheHit: res.Stats.PlanCacheHit, strategy: res.Stats.Strategy}
	for _, p := range res.Stats.Pieces {
		out.est += p.Est
		out.actual += p.Actual
	}
	return out, nil
}

// gauges are the index's point-in-time size figures (/stats' view).
type gauges struct {
	segments, liveTrees int
	segmentBytes        int64
}

func indexGauges(ix *liveIndex) gauges {
	st := ix.Stats()
	return gauges{st.Segments, st.LiveTrees, st.SegmentBytes}
}
