package postings

import (
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
	ra.Add(1, NodeRef{Pre: 2, Post: 9, Level: 1, Order: 2})
	ra.Add(9, NodeRef{Pre: 0, Post: 12, Level: 0, Order: 0})
	ra.Add(1000, NodeRef{Pre: 77, Post: 90, Level: 3, Order: 77})
	var ia IntervalAccumulator
	ia.Add(2, []NodeRef{{Pre: 1, Post: 5, Level: 1, Order: 1}, {Pre: 300, Post: 2, Level: 2, Order: 300}})
	ia.Add(64, []NodeRef{{Pre: 0, Post: 900, Level: 0, Order: 0}, {Pre: 4, Post: 3, Level: 9, Order: 4}})
	for i, blob := range [][]byte{fa.Bytes(), ra.Bytes(), ia.Bytes()} {
		f.Add(uint8(i), blob)
		if len(blob) > 2 {
			f.Add(uint8(i), blob[:len(blob)/2])
			flipped := append([]byte(nil), blob...)
			flipped[0] ^= 0x40
			f.Add(uint8(i), flipped)
		}
	}
	f.Add(uint8(1), []byte{0x00})       // root-split leading same-tid marker
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
			b = putUvarint(b, v)
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
