package postings_test

import (
	"encoding/binary"
	"path/filepath"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/postings"
)

// realRootList returns the payload (count prefix stripped) and length of
// the longest root-split posting list of an index built over a
// corpusgen corpus — a frequent tag's list as the engine stores it. On
// such a list a record continues the previous tree or starts a new one
// in no predictable pattern, which is what the decoders are timed on;
// the regular synthetic lists beside it hide the cost of guessing.
func realRootList(b *testing.B) (payload []byte, entries int) {
	b.Helper()
	dir := filepath.Join(b.TempDir(), "ix")
	if _, err := core.Build(dir, corpusgen.New(42).Trees(3000), core.Options{MSS: 2, Coding: postings.RootSplit}); err != nil {
		b.Fatal(err)
	}
	bt, err := btree.Open(filepath.Join(dir, core.IndexFileName))
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	it := bt.Iterator(nil)
	for it.Next() {
		count, n := binary.Uvarint(it.Value())
		if n > 0 && int(count) > entries {
			payload, entries = append(payload[:0], it.Value()[n:]...), int(count)
		}
	}
	if err := it.Err(); err != nil || entries < 10000 {
		b.Fatalf("longest list has %d entries, err %v", entries, err)
	}
	return payload, entries
}

// syntheticRootList builds a regular root-split list: three occurrences
// in each of 50 000 trees, tidStep apart. At step 1 every number is a
// one-byte varint, the shape of a frequent key's list; at step 1000 the
// tid deltas need multi-byte varints.
func syntheticRootList(tidStep uint32) (payload []byte, entries int) {
	acc := postings.NewRootAccumulator(true)
	const trees, perTree = 50000, 3
	for t := uint32(0); t < trees; t++ {
		for k := uint32(0); k < perTree; k++ {
			pre := 1 + 7*k
			acc.Add(t*tidStep, postings.NodeRef{Pre: pre, Post: pre + 3, Level: 1 + k})
		}
	}
	return acc.Bytes(), acc.Count()
}

var syntheticShapes = []struct {
	name    string
	tidStep uint32
}{{"dense", 1}, {"sparse", 1000}}

// perEntry reports a benchmark's time per decoded entry.
func perEntry(b *testing.B, entries int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
}

// benchNext decodes payload end to end through Next and Entry b.N times.
func benchNext(b *testing.B, payload []byte, entries int) {
	var sink [8]postings.RootEntry
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := postings.NewRootIterator(payload)
		n := 0
		for it.Next() {
			sink[n&7] = it.Entry() // the whole record, as a cursor would copy it
			n++
		}
		if n != entries || it.Err() != nil {
			b.Fatalf("decoded %d of %d entries, err %v", n, entries, it.Err())
		}
	}
	perEntry(b, entries)
}

// benchBlocks decodes payload end to end through NextBlock b.N times.
func benchBlocks(b *testing.B, payload []byte, entries int) {
	var tids [256]uint32
	var refs [256]postings.NodeRef
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := postings.NewRootIterator(payload)
		n := 0
		for {
			k := it.NextBlock(tids[:], refs[:])
			n += k
			if k < len(tids) {
				break
			}
		}
		if n != entries || it.Err() != nil {
			b.Fatalf("decoded %d of %d entries, err %v", n, entries, it.Err())
		}
	}
	perEntry(b, entries)
}

// BenchmarkRootDecode is the per-entry decode benchmark: the two
// synthetic lists iterated end to end through Next and Entry. Besides
// ns/op it reports ns/entry, and bytes/s through SetBytes.
func BenchmarkRootDecode(b *testing.B) {
	for _, shape := range syntheticShapes {
		payload, entries := syntheticRootList(shape.tidStep)
		b.Run(shape.name, func(b *testing.B) { benchNext(b, payload, entries) })
	}
}

// BenchmarkRootBlock times RootIterator.NextBlock — the decode every
// root-split evaluation runs on — in ns per entry over the same two
// synthetic lists and over a real frequent key's list, and on the real
// list also the per-entry loop in the same run, so the two decoders are
// compared on identical bytes. Both allocate nothing.
func BenchmarkRootBlock(b *testing.B) {
	for _, shape := range syntheticShapes {
		payload, entries := syntheticRootList(shape.tidStep)
		b.Run(shape.name, func(b *testing.B) { benchBlocks(b, payload, entries) })
	}
	payload, entries := realRootList(b)
	b.Run("real/block", func(b *testing.B) { benchBlocks(b, payload, entries) })
	b.Run("real/next", func(b *testing.B) { benchNext(b, payload, entries) })
}

// BenchmarkRootSkip times the seek the join stream runs when a window
// ends below the next common tree, in ns per record stepped over. Each
// op walks the whole list the way a join's smaller side drives it: seek
// to a tree gap trees ahead — SkipTo whenever the window runs out, then
// 32-record windows from NextBlock scanned up to the target — take that
// tree's first record, repeat. A dense gap (4 trees, 12 records) mostly
// stays inside one skip block, which SkipTo leaves to the window scan; a
// sparse gap (2 000 trees, 6 000 records) is nearly all block jumps.
// Both run over the one-byte list and over the one whose tid deltas are
// multi-byte varints (the two synthetic lists of BenchmarkRootBlock).
// Neither allocates.
func BenchmarkRootSkip(b *testing.B) {
	for _, gap := range []struct {
		name  string
		trees uint32
	}{{"dense", 4}, {"sparse", 2000}} {
		for _, shape := range []struct {
			name    string
			tidStep uint32
		}{{"onebyte", 1}, {"multibyte", 1000}} {
			payload, entries := syntheticRootList(shape.tidStep)
			b.Run(gap.name+"/"+shape.name, func(b *testing.B) {
				var tids [32]uint32
				var refs [32]postings.NodeRef
				stepped := 0
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					it := postings.NewRootIterator(payload)
					stepped = 0
					lo, n := 0, 0 // the window tids[lo:n]
					for target := uint32(0); ; target += gap.trees * shape.tidStep {
						for lo < n && tids[lo] < target {
							lo, stepped = lo+1, stepped+1
						}
						if lo == n {
							stepped += it.SkipTo(target)
							for lo, n = 0, it.NextBlock(tids[:], refs[:]); n > 0 && tids[n-1] < target; lo, n = 0, it.NextBlock(tids[:], refs[:]) {
								stepped += n
							}
							for lo < n && tids[lo] < target {
								lo, stepped = lo+1, stepped+1
							}
						}
						if lo == n {
							break
						}
						lo++ // the join takes the target tree's first record
					}
					if taken := (entries/3 + int(gap.trees) - 1) / int(gap.trees); stepped+taken != entries || it.Err() != nil {
						b.Fatalf("stepped over %d and took %d of %d entries, err %v", stepped, taken, entries, it.Err())
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(stepped), "ns/stepped")
			})
		}
	}
}
