// Package freqindex is the paper's "frequency-based approach" (§6.3.2):
// an adaptation of TreePi [Zhang et al., ICDE'07] to parse trees. It
// indexes all single-node subtrees plus the top fraction of most
// frequent larger subtrees (up to mss nodes), with filter-style tid
// posting lists. Queries decompose greedily into indexed pieces; the
// intersected candidate set is post-validated against the trees —
// the validation cost TreePi-style indexes cannot avoid.
package freqindex

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/btree"
	"repro/internal/cover"
	"repro/internal/lingtree"
	"repro/internal/match"
	"repro/internal/pager"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/subtree"
	"repro/internal/treebank"
)

// Options configure construction.
type Options struct {
	// MSS is the maximum indexed subtree size.
	MSS int
	// Fraction of larger (size >= 2) unique subtrees to retain, by
	// descending frequency: 0.001, 0.01 and 0.10 in Table 2.
	Fraction float64
}

// Index is a frequency-based subtree index. Posting lists live in a
// disk B+Tree (like the Subtree Index's), so per-lookup costs are
// comparable across systems.
type Index struct {
	mss  int
	tree *btree.Tree
	keys int
	// src supplies candidate trees for post-validation (TreePi's graph
	// store); use a *treebank.Store for realistic data-access costs.
	src treebank.TreeSource
}

// Match mirrors core.Match.
type Match struct {
	TID  uint32 // tree identifier
	Root uint32 // pre number of the query root's image
}

// Build constructs the index over trees, storing posting lists in a
// B+Tree file inside dir; src supplies trees for the validation phase
// at query time. Call Close when done.
func Build(trees []*lingtree.Tree, src treebank.TreeSource, dir string, opt Options) (*Index, error) {
	if opt.MSS < 1 {
		return nil, fmt.Errorf("freqindex: mss %d < 1", opt.MSS)
	}
	if opt.Fraction < 0 || opt.Fraction > 1 {
		return nil, fmt.Errorf("freqindex: fraction %v out of [0,1]", opt.Fraction)
	}
	// First pass: per-key tid lists (deduplicated) and frequencies.
	all := map[subtree.Key][]uint32{}
	freq := map[subtree.Key]int{}
	var ex subtree.Extractor
	for _, t := range trees {
		tid := uint32(t.TID)
		ex.Extract(t, opt.MSS, func(key []byte, _ int, _ []int) {
			k := subtree.Key(key)
			freq[k]++
			if l := all[k]; len(l) == 0 || l[len(l)-1] != tid {
				all[k] = append(l, tid)
			}
		})
	}
	// Retain all size-1 keys plus the top fraction of larger keys.
	type kf struct {
		k subtree.Key
		f int
	}
	var larger []kf
	kept := map[subtree.Key][]uint32{}
	for k, tids := range all {
		p, err := subtree.ParseKey(k)
		if err != nil {
			return nil, err
		}
		if p.Size() == 1 {
			kept[k] = tids
		} else {
			larger = append(larger, kf{k: k, f: freq[k]})
		}
	}
	sort.Slice(larger, func(i, j int) bool {
		if larger[i].f != larger[j].f {
			return larger[i].f > larger[j].f
		}
		return larger[i].k < larger[j].k
	})
	n := int(float64(len(larger)) * opt.Fraction)
	for _, e := range larger[:n] {
		kept[e.k] = all[e.k]
	}
	// Load the retained keys into a disk B+Tree (filter coding).
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "freqindex.idx")
	bld, err := btree.NewBuilder(path, pager.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	sorted := make([]string, 0, len(kept))
	for k := range kept {
		sorted = append(sorted, string(k))
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		var acc postings.FilterAccumulator
		for _, tid := range kept[subtree.Key(k)] {
			acc.Add(tid)
		}
		if err := bld.Add([]byte(k), acc.Bytes()); err != nil {
			return nil, err
		}
	}
	if err := bld.Finish(); err != nil {
		return nil, err
	}
	bt, err := btree.Open(path)
	if err != nil {
		return nil, err
	}
	return &Index{mss: opt.MSS, tree: bt, keys: len(kept), src: src}, nil
}

// Close releases the posting file.
func (ix *Index) Close() error { return ix.tree.Close() }

// NumKeys returns the number of retained index keys.
func (ix *Index) NumKeys() int { return ix.keys }

// lookup fetches one key's tid list from disk; found=false when the
// key is not indexed.
func (ix *Index) lookup(k subtree.Key) ([]uint32, bool, error) {
	val, found, err := ix.tree.Get([]byte(k))
	if err != nil || !found {
		return nil, false, err
	}
	var tids []uint32
	it := postings.NewFilterIterator(val)
	for it.Next() {
		tids = append(tids, it.TID())
	}
	return tids, true, it.Err()
}

// Query evaluates q: greedy decomposition into indexed pieces,
// intersection, then post-validation.
func (ix *Index) Query(q *query.Query) ([]Match, error) {
	ms, _, err := ix.QueryWithStats(q)
	return ms, err
}

// Stats reports evaluation behaviour for the comparison experiments.
type Stats struct {
	Pieces     int // indexed pieces the query decomposed into
	Candidates int // tids surviving the posting-list intersection
	Validated  int // candidate trees fetched and exactly matched
}

// QueryWithStats evaluates q and reports candidate/validation counts.
func (ix *Index) QueryWithStats(q *query.Query) ([]Match, *Stats, error) {
	st := &Stats{}
	var lists [][]uint32
	for _, cr := range q.ComponentRoots() {
		comp := q.ChildComponent(cr)
		pieces, err := ix.decompose(q, comp)
		if err != nil {
			return nil, nil, err
		}
		st.Pieces += len(pieces)
		for _, p := range pieces {
			pat, _, err := q.SubPattern(p.Nodes)
			if err != nil {
				return nil, nil, err
			}
			tids, ok, err := ix.lookup(pat.Key())
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				return nil, st, nil // piece known absent: no matches
			}
			lists = append(lists, tids)
		}
	}
	cands := intersect(lists)
	st.Candidates = len(cands)
	m := match.New(q)
	var out []Match
	for _, tid := range cands {
		t, err := ix.src.Tree(int(tid))
		if err != nil {
			return nil, nil, err
		}
		st.Validated++
		for _, r := range m.Roots(t) {
			out = append(out, Match{TID: tid, Root: uint32(r)})
		}
	}
	return out, st, nil
}

// decompose covers the component greedily with the largest indexed
// pieces available (TreePi's decomposition policy over trees): compute
// the optimal cover, then shrink every piece that is not indexed down
// to indexed sub-pieces, falling back to single nodes (always indexed
// if present in the corpus at all).
func (ix *Index) decompose(q *query.Query, comp []int) (cover.Cover, error) {
	base, err := cover.Optimal(q, comp, ix.mss)
	if err != nil {
		return nil, err
	}
	var out cover.Cover
	for _, p := range base {
		out = append(out, ix.shrink(q, p)...)
	}
	return out, nil
}

// shrink returns p if indexed, otherwise splits it into indexed pieces.
func (ix *Index) shrink(q *query.Query, p cover.Piece) cover.Cover {
	pat, _, err := q.SubPattern(p.Nodes)
	if err == nil {
		if _, ok, kerr := ix.lookup(pat.Key()); (kerr == nil && ok) || len(p.Nodes) == 1 {
			return cover.Cover{p}
		}
	}
	if len(p.Nodes) == 1 {
		return cover.Cover{p}
	}
	// Drop the lexicographically last non-root node and retry; the
	// dropped node becomes its own (recursively shrunk) piece. This
	// walks down to single nodes in the worst case.
	rest := make([]int, 0, len(p.Nodes)-1)
	var dropped int
	maxIdx := -1
	for _, v := range p.Nodes {
		if v != p.Root && v > maxIdx {
			maxIdx = v
		}
	}
	for _, v := range p.Nodes {
		if v == maxIdx {
			dropped = v
			continue
		}
		rest = append(rest, v)
	}
	out := ix.shrink(q, cover.Piece{Root: p.Root, Nodes: rest})
	out = append(out, ix.shrink(q, cover.Piece{Root: dropped, Nodes: []int{dropped}})...)
	return out
}

func intersect(lists [][]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cur := lists[0]
	for _, l := range lists[1:] {
		var next []uint32
		i, j := 0, 0
		for i < len(cur) && j < len(l) {
			switch {
			case cur[i] < l[j]:
				i++
			case cur[i] > l[j]:
				j++
			default:
				next = append(next, cur[i])
				i++
				j++
			}
		}
		cur = next
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}
