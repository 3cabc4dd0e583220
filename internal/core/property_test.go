package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lingtree"
	"repro/internal/postings"
	"repro/internal/query"
)

// randomForest builds small random trees over a tiny alphabet so that
// random queries actually match.
func randomForest(rng *rand.Rand, n int) []*lingtree.Tree {
	labels := []string{"A", "B", "C", "D", "E"}
	out := make([]*lingtree.Tree, n)
	for tid := range out {
		sz := rng.Intn(18) + 1
		b := lingtree.NewBuilder(tid)
		b.Add(lingtree.NoParent, labels[rng.Intn(len(labels))])
		for i := 1; i < sz; i++ {
			b.Add(rng.Intn(i), labels[rng.Intn(len(labels))])
		}
		out[tid] = b.Tree()
	}
	return out
}

// randomQuery builds a random query over the same alphabet, with a
// sprinkling of // axes.
func randomQuery(rng *rand.Rand) *query.Query {
	labels := []string{"A", "B", "C", "D", "E"}
	n := rng.Intn(6) + 1
	q := &query.Query{}
	for i := 0; i < n; i++ {
		parent := -1
		axis := query.Child
		if i > 0 {
			parent = rng.Intn(i)
			if rng.Intn(5) == 0 {
				axis = query.Descendant
			}
		}
		q.Nodes = append(q.Nodes, query.Node{
			Label:  labels[rng.Intn(len(labels))],
			Axis:   axis,
			Parent: parent,
		})
		if parent >= 0 {
			q.Nodes[parent].Children = append(q.Nodes[parent].Children, i)
		}
	}
	return q
}

// hasSameLabelSiblings reports whether any node has two children with
// equal labels — the queries root-split coding cannot fully constrain
// when the twins are not piece roots (see README).
func hasSameLabelSiblings(q *query.Query) bool {
	for v := range q.Nodes {
		seen := map[string]bool{}
		for _, c := range q.Nodes[v].Children {
			if seen[q.Nodes[c].Label] {
				return true
			}
			seen[q.Nodes[c].Label] = true
		}
	}
	return false
}

// TestQuickEndToEndAllCodings is the repository's central property
// test: on random corpora and random queries, every coding must agree
// with the exact matcher. Subtree-interval and filter-based codings are
// exact for all queries; root-split is checked on queries without
// same-label siblings (its documented limitation).
func TestQuickEndToEndAllCodings(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	round := 0
	f := func(seed int64, mssRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mss := int(mssRaw%4) + 1
		trees := randomForest(rng, 25)
		round++
		dirBase := filepath.Join(t.TempDir(), "ix")

		indexes := map[postings.Coding]*Live{}
		for _, c := range []postings.Coding{postings.FilterBased, postings.RootSplit, postings.SubtreeInterval} {
			dir := filepath.Join(dirBase, c.String())
			if _, err := Build(dir, trees, Options{MSS: mss, Coding: c}); err != nil {
				t.Logf("build %v: %v", c, err)
				return false
			}
			ix, err := OpenLive(dir, OpenOptions{})
			if err != nil {
				t.Logf("open %v: %v", c, err)
				return false
			}
			defer ix.Close()
			indexes[c] = ix
		}
		for i := 0; i < 12; i++ {
			q := randomQuery(rng)
			want := groundTruth(trees, q)
			for coding, ix := range indexes {
				if coding == postings.RootSplit && hasSameLabelSiblings(q) {
					continue
				}
				got, err := searchQuery(ix, q)
				if err != nil {
					t.Logf("mss=%d %v query %s: %v", mss, coding, q, err)
					return false
				}
				if !reflect.DeepEqual(got, want) {
					t.Logf("mss=%d %v query %s: got %d matches %v, want %d %v",
						mss, coding, q, len(got), trunc(got), len(want), trunc(want))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickLimitedDrainIsPrefix is the bounded-drain property test: on
// random corpora and random //-bearing queries (whose structural steps
// carry residual predicates — extra parent/ancestor edges and sibling
// distinctness), a Limit: 3 search must return exactly the first three
// matches of the full drain, in the same order.
func TestQuickLimitedDrainIsPrefix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trees := randomForest(rng, 25)
		dir := filepath.Join(t.TempDir(), "lp")
		if _, err := Build(dir, trees, Options{MSS: 3, Coding: postings.RootSplit}); err != nil {
			return false
		}
		ix, err := OpenLive(dir, OpenOptions{})
		if err != nil {
			return false
		}
		defer ix.Close()
		ctx := context.Background()
		for i := 0; i < 10; i++ {
			q := randomQuery(rng)
			if !q.HasDescendantAxis() {
				continue
			}
			src := q.Canonical()
			full, err := ix.Search(ctx, src, SearchOpts{})
			if err != nil {
				t.Logf("query %s: %v", src, err)
				return false
			}
			lim, err := ix.Search(ctx, src, SearchOpts{Limit: 3})
			if err != nil {
				t.Logf("query %s limited: %v", src, err)
				return false
			}
			want := full.Matches[:min(3, len(full.Matches))]
			if !slices.Equal(lim.Matches, want) {
				t.Logf("query %s: limited %v, full drain starts %v", src, lim.Matches, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickRootSplitSupersetOnTwinSiblings pins down the documented
// behaviour: on same-label-sibling queries root-split may return a
// superset of the exact matches, never a subset of them.
func TestQuickRootSplitSupersetOnTwinSiblings(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trees := randomForest(rng, 20)
		dir := filepath.Join(t.TempDir(), "rs")
		if _, err := Build(dir, trees, Options{MSS: 2, Coding: postings.RootSplit}); err != nil {
			return false
		}
		ix, err := OpenLive(dir, OpenOptions{})
		if err != nil {
			return false
		}
		defer ix.Close()
		for i := 0; i < 8; i++ {
			q := randomQuery(rng)
			got, err := searchQuery(ix, q)
			if err != nil {
				return false
			}
			want := groundTruth(trees, q)
			// Every exact match must be present.
			set := map[Match]bool{}
			for _, m := range got {
				set[m] = true
			}
			for _, m := range want {
				if !set[m] {
					t.Logf("query %s: missing exact match %v", q, m)
					return false
				}
			}
			if !hasSameLabelSiblings(q) && len(got) != len(want) {
				t.Logf("query %s: exact-query result size differs", q)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
