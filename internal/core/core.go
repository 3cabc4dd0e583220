// Package core implements the paper's primary contribution: the Subtree
// Index (SI). An SI over a corpus of syntactically annotated trees
// stores every unique subtree of sizes 1..mss as a key of a disk-based
// B+Tree, with a posting list in one of three codings (filter-based,
// root-split, subtree-interval). Queries are decomposed into covers
// (§5), piece posting lists are fetched and joined (§4.3), and — for
// filter-based coding only — candidates are post-validated against the
// data file.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/lingtree"
	"repro/internal/pager"
	"repro/internal/planner"
	"repro/internal/postings"
	"repro/internal/subtree"
	"repro/internal/treebank"
)

// File names inside an index directory.
const (
	indexFileName = "subtree.idx"
	metaFileName  = "meta.json"
)

// meta.json format versions. Version 1 is a single-directory index;
// version 2 is a sharded root whose meta aggregates per-shard metas and
// whose Shards field names the partition count; version 3 is a
// segmented root — a manifest listing immutable segment directories
// (each itself a version-1 or -2 index) in tid order, republished
// atomically on every Append. Indexes written before versioning carry
// 0 and are read as version 1.
const (
	FormatSingle         = 1
	FormatSharded        = 2
	FormatSegmented      = 3
	CurrentFormatVersion = FormatSegmented
)

// Options configure index construction.
type Options struct {
	// MSS is the maximum subtree size indexed (the paper uses 1..5).
	MSS int
	// Coding selects the posting-list scheme.
	Coding postings.Coding
	// DisableRootDedup keeps one posting per instance even under
	// root-split coding; only the ablation benchmarks set it.
	DisableRootDedup bool
}

// rootSkipBlock is the Meta.RootSkipBlock an index built with o records.
func (o *Options) rootSkipBlock() int {
	if o.Coding == postings.RootSplit {
		return postings.RootSkipBlock
	}
	return 0
}

func (o *Options) normalize() error {
	if o.MSS < 1 || o.MSS > 6 {
		return fmt.Errorf("core: mss %d out of range [1, 6]", o.MSS)
	}
	return nil
}

// Meta describes a built index; it is persisted as JSON next to the
// index file and is the source of the index-size and posting-count
// experiments (Figures 8–10).
type Meta struct {
	// FormatVersion is the meta.json schema version (see FormatSingle,
	// FormatSharded); 0 in pre-versioning indexes means FormatSingle.
	FormatVersion int `json:"format_version,omitempty"`
	// Shards is the partition count of a sharded root (0 for a plain
	// single-directory index). In a sharded root the statistics below
	// aggregate over all shards; Keys is a sum of per-shard unique key
	// counts, i.e. an upper bound on corpus-wide unique subtrees.
	Shards int `json:"shards,omitempty"`
	// Segments lists the live segment directories of a segmented root
	// (FormatSegmented) in serving (tid) order; empty otherwise. Each
	// entry is a self-contained version-1 or -2 index directory.
	Segments []string `json:"segments,omitempty"`
	// Generation is the segmented manifest's publish counter: it
	// increments every time the segment list is republished (Append,
	// Delete, Compact, legacy promotion), so readers can cheaply detect
	// staleness. 0 on non-segmented indexes.
	Generation int `json:"generation,omitempty"`
	// Tombstones records logical deletes of a segmented root: for each
	// named segment, the sorted segment-local tids of trees that no
	// longer exist. Tombstoned trees stay on disk (segments are
	// immutable) but are invisible to every query path; compaction
	// drops them physically. Manifests written before deletes existed
	// simply lack the field and read as "no tombstones" — the section
	// is additive, so older v3 manifests stay valid unchanged.
	Tombstones map[string][]int `json:"tombstones,omitempty"`
	// KeyStats is always nil and never read or written: the planner
	// costs pieces by the count prefix of their B+Tree values. A
	// key_stats block in an older meta.json is ignored.
	//
	// Deprecated: kept only because the frozen benchmark
	// (bench/layers.go) names it.
	KeyStats *planner.Stats `json:"-"`
	// RootSkipBlock is the skip-block size the root-split posting lists
	// were written with (postings.RootSkipBlock); 0 under the other
	// codings. A root-split leaf without it predates skip tables and is
	// refused at open (see OpenWith).
	RootSkipBlock int             `json:"root_skip_block,omitempty"`
	MSS           int             `json:"mss"`           // maximum indexed subtree size
	Coding        postings.Coding `json:"coding"`        // posting-list scheme
	NumTrees      int             `json:"num_trees"`     // corpus size
	Keys          int             `json:"keys"`          // unique subtrees indexed
	Postings      int             `json:"postings"`      // total posting records
	IndexBytes    int64           `json:"index_bytes"`   // B+Tree file size
	DataBytes     int64           `json:"data_bytes"`    // flattened corpus size
	BuildNanos    int64           `json:"build_nanos"`   // wall-clock build time
	ExtractNanos  int64           `json:"extract_nanos"` // subtree-enumeration phase
	LoadNanos     int64           `json:"load_nanos"`    // B+Tree bulk-load phase
}

// accumulator unifies the three coding accumulators during the build.
type accumulator struct {
	filter   *postings.FilterAccumulator
	root     *postings.RootAccumulator
	interval *postings.IntervalAccumulator
}

func (a *accumulator) count() int {
	switch {
	case a.filter != nil:
		return a.filter.Count()
	case a.root != nil:
		return a.root.Count()
	default:
		return a.interval.Count()
	}
}

// appendTo appends the posting list's wire form to dst; a root-split
// list writes its skip table and records straight into dst.
func (a *accumulator) appendTo(dst []byte) []byte {
	switch {
	case a.filter != nil:
		return append(dst, a.filter.Bytes()...)
	case a.root != nil:
		return a.root.AppendTo(dst)
	default:
		return append(dst, a.interval.Bytes()...)
	}
}

// Build constructs an SI over trees in dir. The corpus is also written
// to dir as the data file (needed by filter-based validation and by
// downstream tools). Trees are numbered by position: the i-th tree is
// stored and indexed as tid i, whatever its TID field says.
func Build(dir string, trees []*lingtree.Tree, opt Options) (*Meta, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	start := time.Now()
	trees = renumbered(trees)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := treebank.Write(dir, trees); err != nil {
		return nil, err
	}

	// Extraction phase: enumerate occurrences tree by tree and fold
	// them into per-key accumulators. Trees arrive in tid order, so
	// accumulator ordering invariants hold by construction. The
	// extractor lends each key as bytes; the map lookup does not copy
	// them, so only a key's first occurrence allocates.
	extractStart := time.Now()
	accs := make(map[string]*accumulator)
	totalPostings := 0
	newAcc := func() *accumulator {
		switch opt.Coding {
		case postings.FilterBased:
			return &accumulator{filter: &postings.FilterAccumulator{}}
		case postings.RootSplit:
			return &accumulator{root: postings.NewRootAccumulator(!opt.DisableRootDedup)}
		default:
			return &accumulator{interval: &postings.IntervalAccumulator{}}
		}
	}
	var ex subtree.Extractor
	var refs []postings.NodeRef
	for _, t := range trees {
		tid := uint32(t.TID)
		ex.Extract(t, opt.MSS, func(key []byte, root int, slots []int) {
			acc := accs[string(key)]
			if acc == nil {
				acc = newAcc()
				accs[string(key)] = acc
			}
			switch opt.Coding {
			case postings.FilterBased:
				acc.filter.Add(tid)
			case postings.RootSplit:
				acc.root.Add(tid, nodeRef(t, root))
			default:
				refs = refs[:0]
				for _, v := range slots {
					refs = append(refs, nodeRef(t, v))
				}
				acc.interval.Add(tid, refs)
			}
		})
	}
	extractNanos := time.Since(extractStart).Nanoseconds()

	// Load phase: bulk-load the B+Tree from sorted keys. Values are
	// prefixed with the posting count, which the query planner reads as
	// each piece's cost.
	loadStart := time.Now()
	keys := make([]string, 0, len(accs))
	for k := range accs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bld, err := btree.NewBuilder(filepath.Join(dir, indexFileName), pager.DefaultPageSize)
	if err != nil {
		return nil, err
	}
	var val []byte
	for _, k := range keys {
		acc := accs[k]
		totalPostings += acc.count()
		val = val[:0]
		val = appendUvarint(val, uint64(acc.count()))
		val = acc.appendTo(val)
		if err := bld.Add([]byte(k), val); err != nil {
			return nil, fmt.Errorf("core: loading key %q: %w", k, err)
		}
	}
	if err := bld.Finish(); err != nil {
		return nil, err
	}
	loadNanos := time.Since(loadStart).Nanoseconds()

	st, err := os.Stat(filepath.Join(dir, indexFileName))
	if err != nil {
		return nil, err
	}
	store, err := treebank.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	dataBytes := store.SizeBytes()
	store.Close()

	meta := &Meta{
		FormatVersion: FormatSingle,
		RootSkipBlock: opt.rootSkipBlock(),
		MSS:           opt.MSS,
		Coding:        opt.Coding,
		NumTrees:      len(trees),
		Keys:          len(keys),
		Postings:      totalPostings,
		IndexBytes:    st.Size(),
		DataBytes:     dataBytes,
		BuildNanos:    time.Since(start).Nanoseconds(),
		ExtractNanos:  extractNanos,
		LoadNanos:     loadNanos,
	}
	if err := writeMeta(dir, meta); err != nil {
		return nil, err
	}
	return meta, nil
}

// renumbered returns trees with TIDs 0..n-1 by position. Node storage
// is shared read-only, so a shallow copy of a tree whose TID differs
// suffices; a slice already numbered by position is returned as is.
func renumbered(trees []*lingtree.Tree) []*lingtree.Tree {
	for i, t := range trees {
		if t.TID == i {
			continue
		}
		out := make([]*lingtree.Tree, len(trees))
		copy(out, trees[:i])
		for j := i; j < len(trees); j++ {
			ct := *trees[j]
			ct.TID = j
			out[j] = &ct
		}
		return out
	}
	return trees
}

func nodeRef(t *lingtree.Tree, v int) postings.NodeRef {
	n := &t.Nodes[v]
	return postings.NodeRef{
		Pre:   uint32(n.Pre),
		Post:  uint32(n.Post),
		Level: uint32(n.Level),
	}
}

func appendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}
