package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/join"
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

// TestQuickStackJoinAgreesWithBlock is the structural-join property
// test: on random corpora and random //-bearing queries (whose
// structural steps carry residual predicates — extra parent/ancestor
// edges and sibling distinctness), evaluation with the Stack-Tree join
// must agree exactly with the block-nested merge under
// DisableStackJoin, through both the full drain and the bounded
// (limited) one. Must not run parallel to other tests:
// DisableStackJoin is a package-global ablation switch.
func TestQuickStackJoinAgreesWithBlock(t *testing.T) {
	defer func() { join.DisableStackJoin = false }()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trees := randomForest(rng, 25)
		dir := filepath.Join(t.TempDir(), "sj")
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
				continue // only // steps take the stack join
			}
			src := q.Canonical()
			var byMode [2]*Result
			var byModeLim [2]*Result
			for mode, disable := range []bool{false, true} {
				join.DisableStackJoin = disable
				byMode[mode], err = ix.Search(ctx, src, SearchOpts{})
				if err != nil {
					t.Logf("query %s disable=%v: %v", src, disable, err)
					return false
				}
				byModeLim[mode], err = ix.Search(ctx, src, SearchOpts{Limit: 3})
				if err != nil {
					t.Logf("query %s disable=%v limited: %v", src, disable, err)
					return false
				}
			}
			join.DisableStackJoin = false
			if !reflect.DeepEqual(byMode[0].Matches, byMode[1].Matches) {
				t.Logf("query %s: stack %v, block %v", src, trunc(byMode[0].Matches), trunc(byMode[1].Matches))
				return false
			}
			if !reflect.DeepEqual(byModeLim[0].Matches, byModeLim[1].Matches) {
				t.Logf("query %s limited: stack %v, block %v", src, byModeLim[0].Matches, byModeLim[1].Matches)
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
