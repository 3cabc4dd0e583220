// Package atreegrep reproduces ATreeGrep [Shasha et al., SSDBM'02] as
// the paper describes it (§2, §6.3.2): all root-to-leaf label paths of
// the corpus go into a suffix index; a hash index over node labels and
// edges pre-filters candidate trees; query trees are decomposed into
// their root-to-leaf paths, evaluated against the path index, and the
// surviving candidates are post-validated — the step whose cost the
// Subtree Index eliminates.
package atreegrep

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/btree"
	"repro/internal/lingtree"
	"repro/internal/match"
	"repro/internal/pager"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/treebank"
)

// sep joins path labels; labels never contain it after escaping.
const sep = "\x1f"

// Index is a disk-backed ATreeGrep index: a B+Tree holds, under
// prefixed keys, the node filter ("L:" + label), the edge filter
// ("E:" + parent + sep + child) and the path-suffix index ("S:" + the
// downward label sequence of every suffix of every root-to-leaf path).
// Posting lists use the filter coding; path lookups are B+Tree range
// scans, playing the role of the original's suffix-array binary search.
type Index struct {
	tree *btree.Tree
	// src supplies candidate trees during the post-validation phase;
	// a disk-backed treebank.Store makes the data-access cost explicit
	// (the Subtree Index's codings avoid exactly this cost).
	src treebank.TreeSource
}

// Match mirrors core.Match.
type Match struct {
	TID  uint32 // tree identifier
	Root uint32 // pre number of the query root's image
}

// Build constructs the index over trees, writing the posting B+Tree
// into dir; src supplies trees at query time for post-validation (pass
// treebank.Slice(trees) for in-memory, or a *treebank.Store for
// disk-backed validation). Call Close when done.
func Build(trees []*lingtree.Tree, src treebank.TreeSource, dir string) (*Index, error) {
	accs := map[string]*postings.FilterAccumulator{}
	add := func(key string, tid uint32) {
		a := accs[key]
		if a == nil {
			a = &postings.FilterAccumulator{}
			accs[key] = a
		}
		a.Add(tid)
	}
	for _, t := range trees {
		tid := uint32(t.TID)
		for v := range t.Nodes {
			l := esc(t.Nodes[v].Label)
			add("L:"+l, tid)
			if v != 0 {
				add("E:"+esc(t.Nodes[t.Nodes[v].Parent].Label)+sep+l, tid)
			}
			if !t.Nodes[v].IsLeaf() {
				continue
			}
			// Walk up to the root to form the root-to-leaf label path,
			// then record all its suffixes (downward paths ending at
			// the leaf).
			var labels []string
			for u := v; u != lingtree.NoParent; u = t.Nodes[u].Parent {
				labels = append(labels, esc(t.Nodes[u].Label))
			}
			for start := 0; start < len(labels); start++ {
				parts := make([]string, 0, start+1)
				for i := start; i >= 0; i-- {
					parts = append(parts, labels[i])
				}
				add("S:"+strings.Join(parts, sep), tid)
			}
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(accs))
	for k := range accs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	path := filepath.Join(dir, "atreegrep.idx")
	bld, err := btree.NewBuilder(path, pager.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if len(k) > bld.MaxKeyLen() {
			continue // pathological path; the prefilter stays sound without it
		}
		if err := bld.Add([]byte(k), accs[k].Bytes()); err != nil {
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
	return &Index{tree: bt, src: src}, nil
}

// Close releases the posting file.
func (ix *Index) Close() error { return ix.tree.Close() }

// getTIDs fetches one filter posting list; absent keys yield nil.
func (ix *Index) getTIDs(key string) ([]uint32, error) {
	val, found, err := ix.tree.Get([]byte(key))
	if err != nil || !found {
		return nil, err
	}
	var tids []uint32
	it := postings.NewFilterIterator(val)
	for it.Next() {
		tids = append(tids, it.TID())
	}
	return tids, it.Err()
}

func esc(label string) string {
	return strings.ReplaceAll(label, sep, " ")
}

// Stats reports evaluation behaviour.
type Stats struct {
	Paths      int // root-to-leaf query paths evaluated against the path index
	Candidates int // trees surviving the hash pre-filter and path intersection
	Validated  int // candidate trees fetched and exactly matched
}

// Query evaluates q.
func (ix *Index) Query(q *query.Query) ([]Match, error) {
	ms, _, err := ix.QueryWithStats(q)
	return ms, err
}

// QueryWithStats decomposes q into root-to-leaf paths, intersects their
// candidate tid sets (plus the node/edge pre-filters) and validates.
func (ix *Index) QueryWithStats(q *query.Query) ([]Match, *Stats, error) {
	st := &Stats{}
	var lists [][]uint32

	// Node and edge pre-filters over child-axis edges.
	seenL := map[string]bool{}
	for v := 0; v < q.Size(); v++ {
		l := esc(q.Nodes[v].Label)
		if !seenL[l] {
			seenL[l] = true
			tids, err := ix.getTIDs("L:" + l)
			if err != nil {
				return nil, nil, err
			}
			lists = append(lists, tids)
		}
		if v != 0 && q.Nodes[v].Axis == query.Child {
			tids, err := ix.getTIDs("E:" + esc(q.Nodes[q.Nodes[v].Parent].Label) + sep + l)
			if err != nil {
				return nil, nil, err
			}
			lists = append(lists, tids)
		}
	}

	// Root-to-leaf path decomposition within child components; a //
	// edge splits the path into separately checked segments.
	for _, seg := range pathSegments(q) {
		st.Paths++
		tids, err := ix.segmentTIDs(seg)
		if err != nil {
			return nil, nil, err
		}
		lists = append(lists, tids)
	}

	cands := postings.Intersect(lists)
	st.Candidates = len(cands)
	m := match.New(q)
	var out []Match
	for _, tid := range cands {
		st.Validated++
		t, err := ix.src.Tree(int(tid))
		if err != nil {
			return nil, nil, err
		}
		for _, r := range m.Roots(t) {
			out = append(out, Match{TID: tid, Root: uint32(r)})
		}
	}
	return out, st, nil
}

// segmentTIDs returns trees containing the downward label sequence
// anywhere (not necessarily ending at a tree leaf): it range-scans the
// suffix keyspace for the sequence followed by anything. Because
// suffixes end at leaves, an interior match appears as a prefix of
// some suffix.
func (ix *Index) segmentTIDs(labels []string) ([]uint32, error) {
	prefix := []byte("S:" + strings.Join(labels, sep))
	it := ix.tree.Iterator(prefix)
	var tids []uint32
	for it.Next() {
		k := it.Key()
		if !bytes.HasPrefix(k, prefix) {
			break
		}
		// A prefix match must end at a label boundary.
		if len(k) > len(prefix) && !bytes.HasPrefix(k[len(prefix):], []byte(sep)) {
			continue
		}
		fit := postings.NewFilterIterator(it.Value())
		for fit.Next() {
			tids = append(tids, fit.TID())
		}
		if err := fit.Err(); err != nil {
			return nil, err
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	return dedup(tids), nil
}

// pathSegments decomposes the query into maximal child-axis label paths
// from each segment start (query root or node under a // edge) to each
// leaf of its child component.
func pathSegments(q *query.Query) [][]string {
	var segs [][]string
	var walk func(v int, acc []string)
	walk = func(v int, acc []string) {
		acc = append(acc, esc(q.Nodes[v].Label))
		leaf := true
		for _, c := range q.Nodes[v].Children {
			if q.Nodes[c].Axis == query.Child {
				leaf = false
				walk(c, append([]string(nil), acc...))
			} else {
				walk(c, nil)
			}
		}
		if leaf {
			segs = append(segs, acc)
		}
	}
	walk(0, nil)
	return segs
}

func dedup(a []uint32) []uint32 {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}
