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
	// PageSize is the B+Tree page size; 0 means pager.DefaultPageSize.
	PageSize int
	// DisableRootDedup keeps one posting per instance even under
	// root-split coding; only the ablation benchmarks set it.
	DisableRootDedup bool
	// Workers is the number of goroutines extracting subtrees during
	// the build; 0 or 1 means sequential. Aggregation stays in tid
	// order, so the built index is byte-identical regardless of
	// Workers.
	Workers int
}

func (o *Options) normalize() error {
	if o.MSS < 1 || o.MSS > 6 {
		return fmt.Errorf("core: mss %d out of range [1, 6]", o.MSS)
	}
	if o.PageSize == 0 {
		o.PageSize = pager.DefaultPageSize
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
	// KeyStats holds the per-cover-key posting statistics the planner's
	// cost model runs on (entry count, distinct tids, payload bytes for
	// the heaviest keys, plus corpus totals for the tail). Recorded by
	// Build into version-1 metas and aggregated into version-2 sharded
	// roots; segmented (version-3) manifests deliberately omit it — the
	// live layer re-merges segment stats in memory at every open and
	// publish, keeping the frequently rewritten manifest small. Metas
	// written before statistics existed simply lack the field and read
	// as nil, which compiles uncosted plans (no estimates, the syntactic
	// connected join order).
	KeyStats     *planner.Stats  `json:"key_stats,omitempty"`
	MSS          int             `json:"mss"`           // maximum indexed subtree size
	Coding       postings.Coding `json:"coding"`        // posting-list scheme
	NumTrees     int             `json:"num_trees"`     // corpus size
	Keys         int             `json:"keys"`          // unique subtrees indexed
	Postings     int             `json:"postings"`      // total posting records
	IndexBytes   int64           `json:"index_bytes"`   // B+Tree file size
	DataBytes    int64           `json:"data_bytes"`    // flattened corpus size
	BuildNanos   int64           `json:"build_nanos"`   // wall-clock build time
	ExtractNanos int64           `json:"extract_nanos"` // subtree-enumeration phase
	LoadNanos    int64           `json:"load_nanos"`    // B+Tree bulk-load phase
}

// accumulator unifies the three coding accumulators during the build.
// It also counts the distinct trees folded into it — trees arrive in
// tid order, so a run-length check suffices — feeding the per-key
// statistics the planner estimates from.
type accumulator struct {
	filter   *postings.FilterAccumulator
	root     *postings.RootAccumulator
	interval *postings.IntervalAccumulator

	tids    int    // distinct trees folded so far
	lastTID uint32 // tid of the most recent fold (valid when tids > 0)
}

// sawTID notes one occurrence in tree tid, counting distinct trees.
func (a *accumulator) sawTID(tid uint32) {
	if a.tids == 0 || a.lastTID != tid {
		a.tids++
		a.lastTID = tid
	}
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

func (a *accumulator) bytes() []byte {
	switch {
	case a.filter != nil:
		return a.filter.Bytes()
	case a.root != nil:
		return a.root.Bytes()
	default:
		return a.interval.Bytes()
	}
}

// Build constructs an SI over trees in dir. The corpus is also written
// to dir as the data file (needed by filter-based validation and by
// downstream tools).
func Build(dir string, trees []*lingtree.Tree, opt Options) (*Meta, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := treebank.Write(dir, trees); err != nil {
		return nil, err
	}

	// Extraction phase: enumerate occurrences tree by tree and fold
	// them into per-key accumulators. Trees arrive in tid order, so
	// accumulator ordering invariants hold by construction.
	extractStart := time.Now()
	accs := make(map[subtree.Key]*accumulator)
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
	fold := func(t *lingtree.Tree, occs []subtree.Occurrence) {
		for _, occ := range occs {
			acc := accs[occ.Key]
			if acc == nil {
				acc = newAcc()
				accs[occ.Key] = acc
			}
			acc.sawTID(uint32(t.TID))
			switch opt.Coding {
			case postings.FilterBased:
				acc.filter.Add(uint32(t.TID))
			case postings.RootSplit:
				acc.root.Add(uint32(t.TID), nodeRef(t, occ.Root))
			default:
				refs := make([]postings.NodeRef, len(occ.Nodes))
				for i, v := range occ.Nodes {
					refs[i] = nodeRef(t, v)
				}
				acc.interval.Add(uint32(t.TID), refs)
			}
		}
	}
	if opt.Workers <= 1 {
		for _, t := range trees {
			fold(t, subtree.Extract(t, opt.MSS))
		}
	} else {
		parallelExtract(trees, opt.MSS, opt.Workers, fold)
	}
	extractNanos := time.Since(extractStart).Nanoseconds()

	// Load phase: bulk-load the B+Tree from sorted keys. Values are
	// prefixed with the posting count, which the query planner uses as
	// its selectivity statistic.
	loadStart := time.Now()
	keys := make([]string, 0, len(accs))
	for k := range accs {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	bld, err := btree.NewBuilder(filepath.Join(dir, indexFileName), opt.PageSize)
	if err != nil {
		return nil, err
	}
	stats := &planner.Stats{}
	var val []byte
	for _, k := range keys {
		acc := accs[subtree.Key(k)]
		totalPostings += acc.count()
		val = val[:0]
		val = appendUvarint(val, uint64(acc.count()))
		val = append(val, acc.bytes()...)
		stats.Record(k, planner.KeyStat{
			Entries: uint64(acc.count()),
			Tids:    uint64(acc.tids),
			Bytes:   uint64(len(val)),
		})
		if err := bld.Add([]byte(k), val); err != nil {
			return nil, fmt.Errorf("core: loading key %q: %w", k, err)
		}
	}
	stats.Seal(0)
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
		KeyStats:      stats,
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

func nodeRef(t *lingtree.Tree, v int) postings.NodeRef {
	n := &t.Nodes[v]
	return postings.NodeRef{
		Pre:   uint32(n.Pre),
		Post:  uint32(n.Post),
		Level: uint32(n.Level),
		Order: uint32(n.Pre),
	}
}

func appendUvarint(buf []byte, x uint64) []byte {
	for x >= 0x80 {
		buf = append(buf, byte(x)|0x80)
		x >>= 7
	}
	return append(buf, byte(x))
}
