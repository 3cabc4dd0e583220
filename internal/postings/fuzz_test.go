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
