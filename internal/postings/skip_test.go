package postings

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// skipOp is one step of an interleaving of SkipTo and NextBlock calls.
type skipOp struct {
	target uint32 // SkipTo(target) when batch is 0
	batch  int    // else NextBlock of this many records
}

// runSkipOps applies ops to an iterator over blob, then drains it with
// NextBlock. It returns every record delivered, what each SkipTo
// returned, and the final error.
func runSkipOps(blob []byte, ops []skipOp) (got []RootEntry, passed []int, err error) {
	it := NewRootIterator(blob)
	tids, refs := make([]uint32, 256), make([]NodeRef, 256)
	block := func(n int) int {
		k := it.NextBlock(tids[:n], refs[:n])
		for i := 0; i < k; i++ {
			got = append(got, RootEntry{TID: tids[i], NodeRef: refs[i]})
		}
		return k
	}
	for _, op := range ops {
		if op.batch == 0 {
			passed = append(passed, it.SkipTo(op.target))
		} else {
			block(op.batch)
		}
	}
	for block(len(tids)) == len(tids) {
	}
	return got, passed, it.Err()
}

// skipModel is runSkipOps over a list's decoded records and the record
// index each skip block ends at (none for a list without a table):
// SkipTo passes, from the block holding the current record, every block
// whose last tree is below its target.
func skipModel(all []RootEntry, blockEnds []int, ops []skipOp) (got []RootEntry, passed []int) {
	pos := 0
	for _, op := range ops {
		if op.batch == 0 {
			from, b := pos, 0
			for b < len(blockEnds) && blockEnds[b] <= pos {
				b++
			}
			for ; b < len(blockEnds) && all[blockEnds[b]-1].TID < op.target; b++ {
				pos = blockEnds[b]
			}
			passed = append(passed, pos-from)
			continue
		}
		n := min(op.batch, len(all)-pos)
		got = append(got, all[pos:pos+n]...)
		pos += n
	}
	return append(got, all[pos:]...), passed
}

// skipBlockEnds returns the record index each of blob's skip blocks
// ends at, by its table; nil for a list without one.
func skipBlockEnds(blob []byte) []int {
	blocks, _, err := parseSkipTable(blob)
	if err != nil {
		return nil
	}
	var ends []int
	n := 0
	for _, b := range blocks {
		n += b.count
		ends = append(ends, n)
	}
	return ends
}

// skipBlock is one parsed skip-table entry, its tid made absolute.
type skipBlock struct {
	last         uint32
	count, bytes int
}

// parseSkipTable is the test's own reading of a list's skip table: the
// blocks and the offset where records start, or no blocks for a list
// without a table.
func parseSkipTable(blob []byte) (blocks []skipBlock, rec int, err error) {
	if len(blob) == 0 || blob[0] != 0 {
		return nil, 0, nil
	}
	var v []uint64
	off := 1
	for len(v) < 2 {
		x, n := binary.Uvarint(blob[off:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("header")
		}
		v, off = append(v, x), off+n
	}
	if v[0] == 0 || v[0] > uint64(len(blob)-off) || v[1] != uint64(len(blob)-off)-v[0] {
		return nil, 0, fmt.Errorf("header lengths")
	}
	rec = off + int(v[0])
	tab := blob[off:rec]
	last := uint64(0)
	for len(tab) > 0 {
		var e [3]uint64
		for i := range e {
			x, n := binary.Uvarint(tab)
			if n <= 0 {
				return nil, 0, fmt.Errorf("entry")
			}
			e[i], tab = x, tab[n:]
		}
		if last += e[0]; last > uint64(^uint32(0)) || e[1] > uint64(len(blob)) || e[2] > uint64(len(blob)) {
			return nil, 0, fmt.Errorf("entry range")
		}
		blocks = append(blocks, skipBlock{last: uint32(last), count: int(e[1]), bytes: int(e[2])})
	}
	return blocks, rec, nil
}

// tableAgrees reports whether blob is a list whose records decode
// cleanly in non-decreasing tid order and whose skip table, if any,
// agrees with them everywhere: each block a whole number of records
// ending at its stated length, with its stated count and last tid,
// opening with a new tree (a nonzero marker), last tids rising from
// block to block, and the last block ending with the blob. On such a
// list SkipTo must behave exactly as skipModel.
func tableAgrees(blob []byte) bool {
	it := NewRootIterator(blob)
	var all []RootEntry
	var ends []int // offset after each record
	for it.Next() {
		if len(all) > 0 && it.tid < all[len(all)-1].TID {
			return false
		}
		all, ends = append(all, it.Entry()), append(ends, it.off)
	}
	if it.Err() != nil {
		return false
	}
	blocks, start, err := parseSkipTable(blob)
	if err != nil {
		return false
	}
	if len(blocks) == 0 {
		return true
	}
	i := 0
	for b, blk := range blocks {
		if blk.count == 0 || i+blk.count > len(all) || ends[i+blk.count-1] != start+blk.bytes {
			return false
		}
		if m, _ := binary.Uvarint(blob[start:]); m == 0 {
			return false
		}
		if all[i+blk.count-1].TID != blk.last || (b > 0 && blk.last <= blocks[b-1].last) {
			return false
		}
		i, start = i+blk.count, start+blk.bytes
	}
	return i == len(all) && start == len(blob)
}

// tabledRootBlob is a list of five skip blocks: three records in each of
// 100 trees.
func tabledRootBlob() []byte {
	acc := NewRootAccumulator(true)
	for tid := uint32(0); tid < 100; tid++ {
		for k := uint32(0); k < 3; k++ {
			acc.Add(tid, NodeRef{Pre: 1 + 2*k, Post: 1 + 2*k, Level: 1})
		}
	}
	return acc.Bytes()
}

// randomRootList builds a root-split list of about n records from rng:
// trees of 1 to 150 records, tid steps and structural numbers drawn
// from one-byte up to four-byte varint ranges.
func randomRootList(rng *rand.Rand, n int) (*RootAccumulator, []RootEntry) {
	acc := NewRootAccumulator(true)
	tidWide := uint32(1) << (7 * uint(rng.Intn(3)))
	wide := uint32(1) << (7 * uint(1+rng.Intn(4)))
	tid := uint32(0)
	for acc.Count() < n {
		tid += uint32(rng.Intn(2)) + rng.Uint32()%tidWide
		if acc.Count() > 0 && tid == acc.lastTID {
			tid++
		}
		pre := rng.Uint32() % wide
		for k := 1 + rng.Intn([]int{3, 40, 150}[rng.Intn(3)]); k > 0; k-- {
			acc.Add(tid, NodeRef{Pre: pre, Post: rng.Uint32() % wide, Level: rng.Uint32() % 200})
			if pre += 1 + rng.Uint32()%wide; pre >= 1<<30 {
				break // pre would wrap within the tree
			}
		}
	}
	all, err := rootEntries(acc.Bytes(), nil)
	if err != nil || len(all) != acc.Count() {
		panic(fmt.Sprintf("random list decoded %d of %d records: %v", len(all), acc.Count(), err))
	}
	return acc, all
}

// TestRootSkipTableBlocks checks the writer's block rule on random
// lists: every block but the last holds RootSkipBlock records plus the
// rest of the tree its RootSkipBlock-th record belongs to, so each
// block opens a tree; a list of one block has no table.
func TestRootSkipTableBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	tabled := 0
	for trial := 0; trial < 200; trial++ {
		acc, all := randomRootList(rng, rng.Intn(2000))
		blob := acc.Bytes()
		if !tableAgrees(blob) {
			t.Fatalf("trial %d: the skip table disagrees with the records", trial)
		}
		blocks, _, _ := parseSkipTable(blob)
		if len(blocks) > 0 {
			tabled++
		}
		i := 0
		for b, blk := range blocks {
			if b == len(blocks)-1 {
				break
			}
			want := RootSkipBlock
			for i+want < len(all) && all[i+want].TID == all[i+RootSkipBlock-1].TID {
				want++
			}
			if blk.count != want {
				t.Fatalf("trial %d: block %d holds %d records, the rule gives %d", trial, b, blk.count, want)
			}
			i += blk.count
		}
		if len(blocks) == 1 || (len(blocks) == 0 && len(all) > RootSkipBlock && all[RootSkipBlock].TID != all[len(all)-1].TID) {
			t.Fatalf("trial %d: %d records in %d blocks", trial, len(all), len(blocks))
		}
	}
	if tabled < 100 {
		t.Fatalf("only %d of 200 lists had a skip table", tabled)
	}
}

// TestRootSkipToAgreesWithNext holds SkipTo, interleaved with NextBlock
// at random batch sizes, to skipModel on random lists: targets inside
// the current block, across many blocks, behind the iterator and past
// the end. With the records SkipTo leaves to NextBlock, the records
// delivered are exactly those the model did not pass.
func TestRootSkipToAgreesWithNext(t *testing.T) {
	rng := rand.New(rand.NewSource(380))
	for trial := 0; trial < 300; trial++ {
		acc, all := randomRootList(rng, rng.Intn(3000))
		span := uint32(1)
		if len(all) > 0 {
			span += all[len(all)-1].TID
		}
		var ops []skipOp
		target := uint32(0)
		for k := rng.Intn(40); k > 0; k-- {
			switch rng.Intn(4) {
			case 0:
				ops = append(ops, skipOp{batch: 1 + rng.Intn(80)})
			case 1:
				ops = append(ops, skipOp{target: target - uint32(rng.Intn(3))}) // behind or at the head
			default:
				target += rng.Uint32() % (span/uint32(1+rng.Intn(30)) + 1)
				ops = append(ops, skipOp{target: target})
			}
		}
		ops = append(ops, skipOp{target: span + 5})
		blob := acc.Bytes()
		got, passed, err := runSkipOps(blob, ops)
		wantGot, wantPassed := skipModel(all, skipBlockEnds(blob), ops)
		if err != nil || !slices.Equal(passed, wantPassed) || !slices.Equal(got, wantGot) {
			t.Fatalf("trial %d: SkipTo passed %v and delivered %d records (err %v); want %v and %d",
				trial, passed, len(got), err, wantPassed, len(wantGot))
		}
	}
}

// TestRootSkipDetectsInconsistentTable builds a list of several blocks
// and breaks its table three ways a walking reader sees: a block end
// inside a record, a jump landing on a same-tid marker, and a walked
// block ending with another tree than its entry says. SkipTo must
// report each, and a list whose header lies about its length must fail
// before its first record.
func TestRootSkipDetectsInconsistentTable(t *testing.T) {
	good := tabledRootBlob()
	blocks, rec, err := parseSkipTable(good)
	if err != nil || len(blocks) < 3 {
		t.Fatalf("want a list of several blocks, got %d (%v)", len(blocks), err)
	}
	// rebuild re-encodes the list with edited blocks; the record bytes
	// are those of good, or records when given.
	rebuild := func(bs []skipBlock, records []byte) []byte {
		if records == nil {
			records = good[rec:]
		}
		var tab []byte
		last := uint32(0)
		for _, b := range bs {
			tab = appendSkipEntry(tab, b.last-last, b.count, b.bytes)
			last = b.last
		}
		out := putUvarint(putUvarint([]byte{0}, uint64(len(tab))), uint64(len(records)))
		return append(append(out, tab...), records...)
	}
	if !slices.Equal(rebuild(blocks, nil), good) {
		t.Fatal("rebuild does not reproduce the writer's bytes")
	}
	edit := func(f func(bs []skipBlock)) []skipBlock {
		bs := slices.Clone(blocks)
		f(bs)
		return bs
	}
	// A same-tid record at the start of block 1: move one record of tree
	// blocks[0].last from block 0 to block 1.
	moved := edit(func(bs []skipBlock) {
		bs[0].count, bs[0].bytes = bs[0].count-1, bs[0].bytes-4
		bs[1].count, bs[1].bytes = bs[1].count+1, bs[1].bytes+4
	})
	cases := []struct {
		name string
		blob []byte
		ops  []skipOp
	}{
		{"block end inside a record", rebuild(edit(func(bs []skipBlock) {
			bs[0].bytes -= 2
			bs[1].bytes += 2
		}), nil), []skipOp{{batch: 1}, {target: blocks[0].last + 1}}},
		{"jump lands on a same-tid marker", rebuild(moved, nil), []skipOp{{target: blocks[0].last + 1}}},
		{"walked block ends with another tree", rebuild(edit(func(bs []skipBlock) {
			bs[0].last--
		}), nil), []skipOp{{batch: 1}, {target: blocks[0].last + 1}}},
		{"walked last block ends with another tree", rebuild(edit(func(bs []skipBlock) {
			bs[len(bs)-1].last++
		}), nil), []skipOp{{target: blocks[len(blocks)-2].last + 1}, {batch: 1}, {target: blocks[len(blocks)-1].last + 2}}},
	}
	for _, c := range cases {
		if tableAgrees(c.blob) {
			t.Fatalf("%s: the edited table still agrees", c.name)
		}
		if _, _, err := runSkipOps(c.blob, c.ops); err == nil {
			t.Fatalf("%s: SkipTo read the list without an error", c.name)
		}
	}
	// A header whose record length is off by one, either way, fails
	// before the first record.
	for _, d := range []int{-1, 1} {
		bad := rebuild(blocks, nil)
		bad = slices.Concat(bad[:1], putUvarint(nil, uint64(len(bad)-rec+d)), bad[2:])
		if it := NewRootIterator(bad); it.Next() || it.Err() == nil {
			t.Fatalf("record length off by %d: the list decoded", d)
		}
	}
}

// TestDecodeRootListAllOrNothing holds the whole-list decode to the
// records a Next loop reads, on built lists of one to many skip blocks,
// and to its refusals: a wrong record count, and a one-byte corruption
// of a tabled list that leaves the table disagreeing with
// the records (of 200 drawn per list), fail it and return no arrays.
func TestDecodeRootListAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		recipe := make([]byte, 1+rng.Intn(300))
		rng.Read(recipe)
		acc, all := skipList(recipe)
		blob := acc.Bytes()
		tids, refs, err := DecodeRootList(blob, acc.Count())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, e := range all {
			if tids[i] != e.TID || refs[i] != e.NodeRef {
				t.Fatalf("trial %d: record %d decoded as %d %+v, want %+v", trial, i, tids[i], refs[i], e)
			}
		}
		for _, n := range []int{acc.Count() - 1, acc.Count() + 1} {
			if _, _, err := DecodeRootList(blob, n); err == nil {
				t.Fatalf("trial %d: a list of %d records decoded as %d", trial, acc.Count(), n)
			}
		}
		if !RootTabled(blob) {
			continue
		}
		bad := slices.Clone(blob)
		for range 200 {
			i := rng.Intn(len(bad))
			bad[i] ^= byte(1 + rng.Intn(255))
			tids, refs, err := DecodeRootList(bad, acc.Count())
			if err == nil && !tableAgrees(bad) {
				t.Fatalf("trial %d: byte %d corrupted, the table disagrees, and the list still decoded", trial, i)
			}
			if err != nil && (tids != nil || refs != nil) {
				t.Fatalf("trial %d: a failed decode returned arrays", trial)
			}
			bad[i] = blob[i]
		}
	}
}
