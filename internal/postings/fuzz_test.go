package postings

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzPostingDecode drives all three posting iterators over arbitrary
// blobs — with the mmap read path a blob can be any bytes a hostile
// index file maps in. The property is the corruption contract of the
// truncation and bit-flip tests, generalized: decoding may error but
// must never panic, read past the blob, or iterate more records than
// the blob has bytes.
func FuzzPostingDecode(f *testing.F) {
	// Seed with one realistic blob per coding (the corruption tests'
	// corpus), plus truncations and a bit flip of each.
	var fa FilterAccumulator
	for _, tid := range []uint32{0, 3, 7, 250, 100000} {
		fa.Add(tid)
	}
	ra := NewRootAccumulator(true)
	ra.Add(1, NodeRef{Pre: 2, Post: 9, Level: 1})
	ra.Add(9, NodeRef{Pre: 0, Post: 12, Level: 0})
	ra.Add(1000, NodeRef{Pre: 77, Post: 90, Level: 3})
	var ia IntervalAccumulator
	ia.Add(2, []NodeRef{{Pre: 1, Post: 5, Level: 1}, {Pre: 300, Post: 2, Level: 2}})
	ia.Add(64, []NodeRef{{Pre: 0, Post: 900, Level: 0}, {Pre: 4, Post: 3, Level: 9}})
	for i, blob := range [][]byte{fa.Bytes(), ra.Bytes(), ia.Bytes()} {
		f.Add(uint8(i), blob)
		if len(blob) > 2 {
			f.Add(uint8(i), blob[:len(blob)/2])
			flipped := append([]byte(nil), blob...)
			flipped[0] ^= 0x40
			f.Add(uint8(i), flipped)
		}
	}
	f.Add(uint8(1), []byte{0x00}) // root-split skip-table header, cut
	// Root-split lists with a skip table: whole, cut inside the table and
	// inside the records, and with a table entry's count flipped.
	tabled := tabledRootBlob()
	f.Add(uint8(1), tabled)
	f.Add(uint8(1), tabled[:8])
	f.Add(uint8(1), tabled[:len(tabled)-6])
	flipped := append([]byte(nil), tabled...)
	flipped[5] ^= 0x10
	f.Add(uint8(1), flipped)
	f.Add(uint8(2), []byte{0x01, 0xff}) // interval implausible size

	f.Fuzz(func(t *testing.T, codingRaw uint8, blob []byte) {
		cap := len(blob) + 2 // every record consumes at least one byte
		records := 0
		switch Coding(codingRaw % 3) {
		case FilterBased:
			it := NewFilterIterator(blob)
			for it.Next() {
				_ = it.TID()
				if records++; records > cap {
					t.Fatalf("filter: runaway iteration on %x", blob)
				}
			}
		case RootSplit:
			it := NewRootIterator(blob)
			for it.Next() {
				_ = it.Entry()
				if records++; records > cap {
					t.Fatalf("root-split: runaway iteration on %x", blob)
				}
			}
		case SubtreeInterval:
			it := NewIntervalIterator(blob)
			for it.Next() {
				_ = it.Entry()
				if records++; records > cap {
					t.Fatalf("interval: runaway iteration on %x", blob)
				}
			}
		}
	})
}

// FuzzRootBlock is the differential test of the batch decoder: on
// arbitrary bytes, RootIterator.NextBlock — called with batch sizes the
// fuzzer picks, alternating between two of them — must produce exactly
// the (tid, pre, post, level, order) sequence of the Next/Entry loop and
// stop with the same error, or none, after the same number of records.
// Decoding over a blob whose capacity ends with its length keeps a read
// past the end a slice-bounds panic rather than a silent over-read.
func FuzzRootBlock(f *testing.F) {
	rec := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	plain := rec(1, 2, 9, 1)
	// A multi-byte varint at each of the four positions of a record, after
	// and before one-byte records.
	f.Add(cat(plain, rec(300, 2, 9, 1), plain), uint8(2), uint8(1))
	f.Add(cat(plain, rec(1, 300, 301, 1), plain), uint8(2), uint8(1))
	f.Add(cat(plain, rec(1, 2, 70000, 1), plain), uint8(2), uint8(1))
	f.Add(cat(plain, rec(1, 2, 9, 128), plain), uint8(2), uint8(1))
	// A record cut by the blob's end: inside the fast path's four-byte
	// window, and inside a multi-byte varint.
	f.Add(cat(plain, plain[:3]), uint8(4), uint8(4))
	f.Add(cat(plain, []byte{0x01, 0x80}), uint8(1), uint8(3))
	// The leading same-tid marker, canonical and overlong.
	f.Add(cat(rec(0, 2, 9, 1), plain), uint8(3), uint8(3))
	f.Add(cat([]byte{0x80, 0x00, 2, 9, 1}, plain), uint8(3), uint8(3))
	// A tid delta that wraps uint32, and a marker wider than 32 bits.
	f.Add(cat(rec(5, 2, 9, 1), rec(1<<32-2, 0, 3, 0), plain), uint8(2), uint8(2))
	f.Add(cat(plain, rec(1<<40+1, 0, 3, 0)), uint8(1), uint8(2))
	// A batch boundary falling between two same-tid records (pre is a
	// delta carried across the boundary).
	f.Add(cat(plain, rec(0, 5, 8, 2), rec(0, 1, 7, 2), plain), uint8(2), uint8(2))
	f.Add(cat(plain, rec(0, 5, 8, 2), rec(0, 300, 7, 2)), uint8(1), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, batchA, batchB uint8) {
		blob := append(make([]byte, 0, len(data)), data...) // cap == len
		want, wantErr := rootEntries(blob, nil)
		if len(want) > len(blob)/4 {
			t.Fatalf("Next decoded %d records from %d bytes", len(want), len(blob))
		}
		flip := false
		got, gotErr := rootEntries(blob, func() int {
			if flip = !flip; flip {
				return int(batchA)
			}
			return int(batchB)
		})
		if !sameError(gotErr, wantErr) {
			t.Fatalf("%x: NextBlock stopped with %v after %d records, Next with %v after %d", blob, gotErr, len(got), wantErr, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("%x: NextBlock decoded %d records, Next %d", blob, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%x: record %d: NextBlock %+v, Next %+v", blob, i, got[i], want[i])
			}
		}
	})
}

// FuzzRootSkip holds RootIterator.SkipTo to the records a Next loop
// decodes. data is read two ways, and ops as an interleaving of SkipTo
// and NextBlock calls on each (a byte with the low bit set is a
// NextBlock of 1 + b>>4 records, any other byte raises the SkipTo
// target by b>>1 steps of a 256th of the list's tid span):
//
//   - as the recipe of a list built by RootAccumulator (skipList), on
//     which the calls must deliver exactly skipModel's records and pass
//     counts, with no error;
//   - as hostile bytes, on which they must never panic, read past the
//     blob or pass more records than the blob has room for, and must
//     behave as on a well-formed list wherever the skip table agrees
//     with its records (tableAgrees). How a disagreeing table is caught
//     is TestRootSkipDetectsInconsistentTable's subject.
func FuzzRootSkip(f *testing.F) {
	long := make([]byte, 90)
	for i := range long {
		long[i] = byte(i * 37)
	}
	built, _ := skipList(long)
	f.Add(long, []byte{40, 1, 200, 17, 6, 255, 254})
	f.Add(built.Bytes(), []byte{2, 4, 33, 80, 3, 160})
	f.Add(built.Bytes()[:len(built.Bytes())/2], []byte{8, 8, 8})
	f.Add([]byte{0x00, 0x03, 0x04, 0x01, 0x01, 0x04, 0x01, 0x02, 0x09, 0x01}, []byte{4, 1})
	f.Add([]byte{0x00, 0x03, 0x04, 0x01, 0x01, 0x04, 0x00, 0x02, 0x09, 0x01}, []byte{4})
	f.Add([]byte{0x01, 0x02, 0x09, 0x01, 0x00, 0x05, 0x08, 0x02}, []byte{1, 6})

	f.Fuzz(func(t *testing.T, data, opBytes []byte) {
		acc, all := skipList(data)
		ops := skipOps(opBytes, all)
		built := acc.Bytes()
		got, passed, err := runSkipOps(built, ops)
		wantGot, wantPassed := skipModel(all, skipBlockEnds(built), ops)
		if err != nil || !slices.Equal(passed, wantPassed) || !slices.Equal(got, wantGot) {
			t.Fatalf("built list: SkipTo passed %v and delivered %d records (err %v); want %v and %d",
				passed, len(got), err, wantPassed, len(wantGot))
		}

		blob := append(make([]byte, 0, len(data)), data...) // cap == len
		all, _ = rootEntries(blob, nil)
		ops = skipOps(opBytes, all)
		got, passed, err = runSkipOps(blob, ops)
		total := len(got)
		for _, p := range passed {
			total += p
		}
		if total > len(blob)/4 {
			t.Fatalf("%x: passed and delivered %d records from %d bytes", blob, total, len(blob))
		}
		if tableAgrees(blob) {
			wantGot, wantPassed = skipModel(all, skipBlockEnds(blob), ops)
			if err != nil || !slices.Equal(passed, wantPassed) || !slices.Equal(got, wantGot) {
				t.Fatalf("%x: SkipTo passed %v and delivered %d records (err %v); want %v and %d",
					blob, passed, len(got), err, wantPassed, len(wantGot))
			}
		}

		// The whole-list decode is all or nothing, and on a list it accepts
		// no skip sequence fails: the records are exactly a Next loop's.
		for _, l := range []struct {
			blob []byte
			n    int
		}{{built, acc.Count()}, {blob, len(all)}} {
			tids, refs, derr := DecodeRootList(l.blob, l.n)
			if derr != nil {
				if tids != nil || refs != nil {
					t.Fatalf("%x: DecodeRootList failed (%v) but returned arrays", l.blob, derr)
				}
				continue
			}
			want, werr := rootEntries(l.blob, nil)
			_, _, serr := runSkipOps(l.blob, skipOps(opBytes, want))
			if werr != nil || serr != nil || len(want) != len(tids) || !tableAgrees(l.blob) {
				t.Fatalf("%x: DecodeRootList accepted %d records; a Next loop read %d (err %v), skips failed with %v, table agrees %v",
					l.blob, len(tids), len(want), werr, serr, tableAgrees(l.blob))
			}
			for i, e := range want {
				if tids[i] != e.TID || refs[i] != e.NodeRef {
					t.Fatalf("%x: record %d decoded as %d %+v, Next read %+v", l.blob, i, tids[i], refs[i], e)
				}
			}
		}
		if len(built) > 0 {
			if _, _, derr := DecodeRootList(built, acc.Count()); derr != nil {
				t.Fatalf("a built list failed to decode whole: %v", derr)
			}
		}
	})
}

// skipList builds the list FuzzRootSkip's recipe describes: four records
// per recipe byte (at most 4000), the i-th drawn from three bytes of
// the recipe. Of the first, bit 7 starts a new tree, bits 0-5 are its
// tid step and bit 6 multiplies the step by 300 (a multi-byte delta);
// the second is the pre (or, within a tree, its step) and the third the
// post and level.
func skipList(recipe []byte) (*RootAccumulator, []RootEntry) {
	acc := NewRootAccumulator(true)
	var all []RootEntry
	if len(recipe) == 0 {
		return acc, nil
	}
	tid, pre := uint32(0), uint32(0)
	for i, n := 0, min(4*len(recipe), 4000); i < n; i++ {
		b0, b1, b2 := recipe[i%len(recipe)], recipe[(7*i+1)%len(recipe)], recipe[(13*i+2)%len(recipe)]
		if i == 0 || b0&0x80 != 0 {
			step := uint32(b0 & 0x3f)
			if b0&0x40 != 0 {
				step *= 300
			}
			if i > 0 {
				step++
			}
			tid, pre = tid+step, uint32(b1)
		} else {
			pre += 1 + uint32(b1)
		}
		e := RootEntry{TID: tid, NodeRef: NodeRef{Pre: pre, Post: uint32(b2) * 3, Level: uint32(b2 >> 3)}}
		acc.Add(e.TID, e.NodeRef)
		all = append(all, e)
	}
	return acc, all
}

// skipOps reads FuzzRootSkip's op bytes against a list's records.
func skipOps(b []byte, all []RootEntry) []skipOp {
	span := uint32(0)
	if len(all) > 0 {
		span = all[len(all)-1].TID
	}
	var ops []skipOp
	target := uint32(0)
	for _, x := range b {
		if x&1 != 0 {
			ops = append(ops, skipOp{batch: 1 + int(x>>4)})
			continue
		}
		target += uint32(x>>1) * (span/256 + 1)
		ops = append(ops, skipOp{target: target})
	}
	return ops
}
