package postings

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestCodingNames(t *testing.T) {
	for _, c := range []Coding{FilterBased, RootSplit, SubtreeInterval} {
		got, err := ParseCoding(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCoding(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCoding("nope"); err == nil {
		t.Error("want error for unknown coding")
	}
	if Coding(99).String() == "" {
		t.Error("unknown coding should still render")
	}
}

func TestFilterRoundTrip(t *testing.T) {
	var a FilterAccumulator
	tids := []uint32{0, 3, 3, 3, 7, 100, 100, 4096}
	for _, tid := range tids {
		a.Add(tid)
	}
	if a.Count() != 5 {
		t.Errorf("Count = %d, want 5 (duplicates collapse)", a.Count())
	}
	it := NewFilterIterator(a.Bytes())
	var got []uint32
	for it.Next() {
		got = append(got, it.TID())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	want := []uint32{0, 3, 7, 100, 4096}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestFilterOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on out-of-order tids")
		}
	}()
	var a FilterAccumulator
	a.Add(5)
	a.Add(4)
}

func TestRootSplitRoundTripAndDedup(t *testing.T) {
	a := NewRootAccumulator(true)
	a.Add(1, NodeRef{Pre: 2, Post: 9, Level: 1})
	a.Add(1, NodeRef{Pre: 2, Post: 9, Level: 1}) // symmetric instance: collapses
	a.Add(1, NodeRef{Pre: 5, Post: 4, Level: 2})
	a.Add(4, NodeRef{Pre: 0, Post: 12, Level: 0})
	if a.Count() != 3 {
		t.Errorf("Count = %d, want 3", a.Count())
	}
	it := NewRootIterator(a.Bytes())
	var got []RootEntry
	for it.Next() {
		got = append(got, it.Entry())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	want := []RootEntry{
		{TID: 1, NodeRef: NodeRef{Pre: 2, Post: 9, Level: 1}},
		{TID: 1, NodeRef: NodeRef{Pre: 5, Post: 4, Level: 2}},
		{TID: 4, NodeRef: NodeRef{Pre: 0, Post: 12, Level: 0}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestRootSplitNoDedupAblation(t *testing.T) {
	a := NewRootAccumulator(false)
	a.Add(1, NodeRef{Pre: 2, Post: 9, Level: 1})
	a.Add(1, NodeRef{Pre: 2, Post: 9, Level: 1})
	if a.Count() != 2 {
		t.Errorf("Count = %d, want 2 without dedup", a.Count())
	}
}

func TestIntervalRoundTrip(t *testing.T) {
	var a IntervalAccumulator
	a.Add(2, []NodeRef{{Pre: 1, Post: 5, Level: 1}, {Pre: 3, Post: 2, Level: 2}})
	a.Add(2, []NodeRef{{Pre: 1, Post: 5, Level: 1}, {Pre: 4, Post: 3, Level: 2}})
	a.Add(9, []NodeRef{{Pre: 0, Post: 9, Level: 0}})
	if a.Count() != 3 {
		t.Errorf("Count = %d", a.Count())
	}
	it := NewIntervalIterator(a.Bytes())
	var got []IntervalEntry
	for it.Next() {
		got = append(got, it.Entry())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if len(got) != 3 || got[0].TID != 2 || got[2].TID != 9 {
		t.Fatalf("entries: %+v", got)
	}
	if got[1].Nodes[1].Pre != 4 {
		t.Errorf("second entry nodes: %+v", got[1].Nodes)
	}
	if len(got[2].Nodes) != 1 {
		t.Errorf("third entry nodes: %+v", got[2].Nodes)
	}
}

func TestCorruptInputs(t *testing.T) {
	// Truncated varints must surface as errors, not panics.
	bad := []byte{0x80} // incomplete varint
	fit := NewFilterIterator(bad)
	for fit.Next() {
	}
	if fit.Err() == nil {
		t.Error("filter: want error on corrupt input")
	}
	// A leading 0x00 opens a skip table; alone it is a cut header. A
	// list's first record must start a tree, with or without a table,
	// and an overlong zero marker is still the same-tid marker.
	header := tabledRootBlob()
	rec := len(header) - 300*4 // every record of the blob is four bytes
	for name, blob := range map[string][]byte{
		"cut skip-table header":         {0x00},
		"leading same-tid marker":       slices.Concat(header[:rec], []byte{0x00}, header[rec+1:]),
		"overlong leading same marker":  {0x80, 0x00, 0x02, 0x09, 0x01},
		"table longer than the list":    {0x00, 0x09, 0x04, 0x01, 0x01, 0x04, 0x01, 0x02, 0x09, 0x01},
		"records shorter than declared": header[:len(header)-4],
	} {
		rit := NewRootIterator(blob)
		for rit.Next() {
		}
		if rit.Err() == nil {
			t.Errorf("root-split: want error on %s", name)
		}
	}
	iit := NewIntervalIterator([]byte{0x01, 0xFF, 0x01}) // m = 255 implausible
	for iit.Next() {
	}
	if iit.Err() == nil {
		t.Error("interval: want error on implausible size")
	}
}

func TestQuickFilterRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		tids := append([]uint32(nil), raw...)
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		var a FilterAccumulator
		for _, tid := range tids {
			a.Add(tid)
		}
		var uniq []uint32
		for i, tid := range tids {
			if i == 0 || tid != tids[i-1] {
				uniq = append(uniq, tid)
			}
		}
		it := NewFilterIterator(a.Bytes())
		var got []uint32
		for it.Next() {
			got = append(got, it.TID())
		}
		return it.Err() == nil && reflect.DeepEqual(got, uniq) && a.Count() == len(uniq)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickRootSplitRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 60)
		var entries []RootEntry
		tid := uint32(0)
		pre := uint32(0)
		for i := 0; i < n; i++ {
			if i == 0 {
				tid = uint32(rng.Intn(5))
				pre = uint32(rng.Intn(10))
			} else if rng.Intn(3) == 0 {
				tid += uint32(rng.Intn(4) + 1) // strictly new tid: pre may reset
				pre = uint32(rng.Intn(10))
			} else {
				pre += uint32(rng.Intn(6)) // same tid: pre non-decreasing (0 = duplicate)
			}
			entries = append(entries, RootEntry{TID: tid, NodeRef: NodeRef{
				Pre: pre, Post: uint32(rng.Intn(100)), Level: uint32(rng.Intn(20)),
			}})
		}
		// Deduplicate exact (tid, pre) repeats as the accumulator would.
		var want []RootEntry
		a := NewRootAccumulator(true)
		for _, e := range entries {
			a.Add(e.TID, e.NodeRef)
			if len(want) == 0 || want[len(want)-1].TID != e.TID || want[len(want)-1].Pre != e.Pre {
				want = append(want, e)
			}
		}
		it := NewRootIterator(a.Bytes())
		var got []RootEntry
		for it.Next() {
			got = append(got, it.Entry())
		}
		if it.Err() != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			// Post/Level of a deduped posting come from its first instance.
			if got[i].TID != want[i].TID || got[i].Pre != want[i].Pre {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- corruption robustness ---------------------------------------------
//
// The iterators decode blobs read straight off disk, so a truncated or
// bit-flipped page must never panic or loop; a cut inside a record must
// surface through Err (a cut on a record boundary is indistinguishable
// from a shorter valid list — the count prefix above the coding layer
// catches those).

// corpusBlob builds one realistic blob per coding plus the byte offset
// after each complete record (for boundary-aware truncation checks).
func corpusBlob(t *testing.T, coding Coding) (blob []byte, boundaries []int) {
	t.Helper()
	switch coding {
	case FilterBased:
		var a FilterAccumulator
		for _, tid := range []uint32{0, 3, 3, 7, 250, 100000} {
			a.Add(tid)
		}
		blob = a.Bytes()
		it := NewFilterIterator(blob)
		for it.Next() {
			boundaries = append(boundaries, it.off)
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	case RootSplit:
		a := NewRootAccumulator(true)
		a.Add(1, NodeRef{Pre: 2, Post: 9, Level: 1})
		a.Add(1, NodeRef{Pre: 300, Post: 301, Level: 4})
		a.Add(9, NodeRef{Pre: 0, Post: 12, Level: 0})
		a.Add(1000, NodeRef{Pre: 77, Post: 90, Level: 3})
		blob = a.Bytes()
		it := NewRootIterator(blob)
		for it.Next() {
			boundaries = append(boundaries, it.off)
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	case SubtreeInterval:
		var a IntervalAccumulator
		a.Add(2, []NodeRef{{Pre: 1, Post: 5, Level: 1}, {Pre: 300, Post: 2, Level: 2}})
		a.Add(2, []NodeRef{{Pre: 1, Post: 5, Level: 1}})
		a.Add(64, []NodeRef{{Pre: 0, Post: 900, Level: 0}, {Pre: 4, Post: 3, Level: 9}, {Pre: 8, Post: 7, Level: 2}})
		blob = a.Bytes()
		it := NewIntervalIterator(blob)
		for it.Next() {
			boundaries = append(boundaries, it.off)
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	}
	if len(blob) == 0 || len(boundaries) == 0 {
		t.Fatal("vacuous corpus blob")
	}
	return blob, boundaries
}

// iterate walks a (possibly corrupt) blob under the given coding with
// a hard step cap, converting panics and runaway loops into failures,
// and returns the records decoded and the final error.
func iterate(t *testing.T, coding Coding, blob []byte) (records int, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%v: iterator panicked on corrupt blob %x: %v", coding, blob, r)
		}
	}()
	cap := len(blob) + 2 // every record consumes at least one byte
	switch coding {
	case FilterBased:
		it := NewFilterIterator(blob)
		for it.Next() {
			_ = it.TID()
			if records++; records > cap {
				t.Fatalf("filter: runaway iteration on %x", blob)
			}
		}
		return records, it.Err()
	case RootSplit:
		want, err := rootEntries(blob, nil)
		if len(want) > cap {
			t.Fatalf("root-split: runaway iteration on %x", blob)
		}
		// The block method is held to the per-entry loop on every blob
		// these tables produce, at a batch size that splits the records
		// unevenly and at one that takes the list whole.
		for _, batch := range []int{1, 3, len(blob) + 1} {
			got, gotErr := rootEntries(blob, func() int { return batch })
			if !slices.Equal(got, want) || !sameError(gotErr, err) {
				t.Fatalf("root-split %x: blocks of %d decoded %d records (err %v), Next %d (err %v)",
					blob, batch, len(got), gotErr, len(want), err)
			}
		}
		return len(want), err
	default:
		it := NewIntervalIterator(blob)
		for it.Next() {
			_ = it.Entry()
			if records++; records > cap {
				t.Fatalf("interval: runaway iteration on %x", blob)
			}
		}
		return records, it.Err()
	}
}

// rootEntries decodes a root-split blob to the end or the first error:
// through Next and Entry when batch is nil, else through NextBlock with
// each call's size drawn from batch (clamped to at least one record).
func rootEntries(blob []byte, batch func() int) ([]RootEntry, error) {
	var out []RootEntry
	it := NewRootIterator(blob)
	if batch == nil {
		for it.Next() {
			out = append(out, it.Entry())
		}
		return out, it.Err()
	}
	for {
		n := max(batch(), 1)
		tids, refs := make([]uint32, n), make([]NodeRef, n)
		got := it.NextBlock(tids, refs)
		for i := 0; i < got; i++ {
			out = append(out, RootEntry{TID: tids[i], NodeRef: refs[i]})
		}
		if got < n {
			// A short block is the end of the list or an error, and the
			// iterator stays there.
			if again := it.NextBlock(tids, refs); again != 0 {
				panic("NextBlock resumed after a short block")
			}
			return out, it.Err()
		}
	}
}

// sameError reports whether two decode outcomes agree: both clean, or
// the same message (which names the failing offset).
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestRootBlockAgreesWithNext holds NextBlock to the per-entry loop on
// well-formed lists of every varint width: random (tid, pre) walks whose
// deltas and structural numbers range from one-byte to five-byte
// varints, decoded with random batch sizes, and with Next calls
// interleaved between the blocks.
func TestRootBlockAgreesWithNext(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		acc := NewRootAccumulator(rng.Intn(2) == 0)
		// This trial's value ranges; tid steps stay below 2^21 so 200 of
		// them cannot wrap.
		wide := uint32(1) << (7 * uint(1+rng.Intn(4)))
		tidWide := uint32(1) << (7 * uint(1+rng.Intn(3)))
		tid, pre := uint32(0), uint32(0)
		for i, n := 0, rng.Intn(200); i < n; i++ {
			d := rng.Uint32() % wide
			if i == 0 || rng.Intn(3) == 0 || pre+d < pre {
				tid += 1 + rng.Uint32()%tidWide
				pre = d
			} else {
				pre += d
			}
			acc.Add(tid, NodeRef{Pre: pre, Post: rng.Uint32() >> uint(rng.Intn(32)), Level: rng.Uint32() % 200})
		}
		blob := acc.Bytes()
		want, err := rootEntries(blob, nil)
		if err != nil || len(want) != acc.Count() {
			t.Fatalf("trial %d: Next decoded %d of %d records, err %v", trial, len(want), acc.Count(), err)
		}
		got, err := rootEntries(blob, func() int { return 1 + rng.Intn(9) })
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("trial %d: NextBlock decoded %d records (err %v), Next %d", trial, len(got), err, len(want))
		}
		// Interleaved: both methods advance the one iterator state.
		it := NewRootIterator(blob)
		var mixed []RootEntry
		tids, refs := make([]uint32, 4), make([]NodeRef, 4)
		for {
			if rng.Intn(2) == 0 {
				if !it.Next() {
					break
				}
				mixed = append(mixed, it.Entry())
				continue
			}
			k := it.NextBlock(tids, refs)
			for i := 0; i < k; i++ {
				mixed = append(mixed, RootEntry{TID: tids[i], NodeRef: refs[i]})
			}
			if k < len(tids) {
				break
			}
		}
		if it.Err() != nil || !slices.Equal(mixed, want) {
			t.Fatalf("trial %d: interleaved decode gave %d records (err %v), Next %d", trial, len(mixed), it.Err(), len(want))
		}
	}
}

// TestIteratorsTruncatedBlobs cuts each coding's blob at every byte
// offset: no cut may panic or loop, and a cut strictly inside a record
// must surface Err.
func TestIteratorsTruncatedBlobs(t *testing.T) {
	// A list with a skip table states its records' length, so any cut of
	// it errors, on a record boundary too.
	tabled := tabledRootBlob()
	for cut := 1; cut < len(tabled); cut++ {
		if records, err := iterate(t, RootSplit, tabled[:cut]); err == nil {
			t.Fatalf("root-split with a skip table: cut at %d decoded %d records with nil Err", cut, records)
		}
	}
	for _, coding := range []Coding{FilterBased, RootSplit, SubtreeInterval} {
		blob, bounds := corpusBlob(t, coding)
		onBoundary := map[int]bool{0: true}
		for _, b := range bounds {
			onBoundary[b] = true
		}
		for cut := 0; cut < len(blob); cut++ {
			records, err := iterate(t, coding, blob[:cut])
			if !onBoundary[cut] && err == nil {
				t.Fatalf("%v: cut at %d (mid-record) decoded %d records with nil Err", coding, cut, records)
			}
			if onBoundary[cut] && err != nil {
				t.Fatalf("%v: cut at record boundary %d errored: %v", coding, cut, err)
			}
		}
	}
}

// TestIteratorsBitFlips flips every bit of every coding's blob: any
// outcome is acceptable except a panic, an unbounded loop, or an
// inconsistent iterator (Err set while Next kept returning true is
// impossible by construction; the cap in iterate enforces
// termination).
func TestIteratorsBitFlips(t *testing.T) {
	flip := func(coding Coding, blob []byte) {
		for i := 0; i < len(blob); i++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), blob...)
				mut[i] ^= 1 << bit
				iterate(t, coding, mut)
			}
		}
	}
	for _, coding := range []Coding{FilterBased, RootSplit, SubtreeInterval} {
		blob, _ := corpusBlob(t, coding)
		flip(coding, blob)
	}
	flip(RootSplit, tabledRootBlob())
}

// TestIteratorsStayStopped asserts a failed iterator stays failed:
// calling Next after an error keeps returning false with the same Err.
func TestIteratorsStayStopped(t *testing.T) {
	for _, coding := range []Coding{FilterBased, RootSplit, SubtreeInterval} {
		blob, _ := corpusBlob(t, coding)
		trunc := blob[:len(blob)-1] // strictly inside the last record
		var next func() bool
		var errf func() error
		switch coding {
		case FilterBased:
			it := NewFilterIterator(trunc)
			next, errf = it.Next, it.Err
		case RootSplit:
			it := NewRootIterator(trunc)
			next, errf = it.Next, it.Err
			// The block method stops, and stays stopped, the same way.
			bit := NewRootIterator(trunc)
			tids, refs := make([]uint32, 2), make([]NodeRef, 2)
			for bit.NextBlock(tids, refs) == len(tids) {
			}
			if bit.Err() == nil || bit.NextBlock(tids, refs) != 0 || bit.Next() {
				t.Fatalf("root-split: NextBlock resumed after error %v", bit.Err())
			}
		default:
			it := NewIntervalIterator(trunc)
			next, errf = it.Next, it.Err
		}
		for next() {
		}
		first := errf()
		for i := 0; i < 3; i++ {
			if next() {
				t.Fatalf("%v: Next resumed after error", coding)
			}
		}
		if errf() != first {
			t.Fatalf("%v: Err changed after repeated Next", coding)
		}
	}
}
