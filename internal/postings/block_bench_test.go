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
			acc.Add(t*tidStep, postings.NodeRef{Pre: pre, Post: pre + 3, Level: 1 + k, Order: pre})
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
