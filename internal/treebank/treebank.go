// Package treebank stores corpora of parsed trees. The on-disk form is
// the paper's "data file" (§6.1): trees flattened and stored
// sequentially in a binary file, plus a directory of offsets so the
// filtering phase can fetch the parse tree of a candidate tid with one
// read. An in-memory Forest backs the scan baselines that, like TGrep2
// and CorpusSearch, hold the whole corpus in memory.
package treebank

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/lingtree"
)

// DataFileName and IndexFileName are the fixed names of the two files a
// Store keeps inside its directory.
const (
	DataFileName  = "trees.dat"
	IndexFileName = "trees.idx"
)

// Writer appends trees to a new data file. Trees must be appended in
// tid order starting at 0.
type Writer struct {
	dir     string
	dataF   *os.File
	data    *bufio.Writer
	offsets []uint64
	off     uint64
	next    int
	scratch []byte
}

// NewWriter creates (or truncates) a tree store in dir.
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, DataFileName))
	if err != nil {
		return nil, err
	}
	return &Writer{dir: dir, dataF: f, data: bufio.NewWriterSize(f, 1<<20)}, nil
}

// Append adds t, whose TID must equal the number of trees already
// appended.
func (w *Writer) Append(t *lingtree.Tree) error {
	if t.TID != w.next {
		return fmt.Errorf("treebank: appending tid %d, want %d", t.TID, w.next)
	}
	w.scratch = encodeTree(w.scratch[:0], t)
	w.offsets = append(w.offsets, w.off)
	n, err := w.data.Write(w.scratch)
	if err != nil {
		return err
	}
	w.off += uint64(n)
	w.next++
	return nil
}

// Close flushes the data file and writes the offset directory. The
// data file is closed on every path, a failed flush included.
func (w *Writer) Close() error {
	err := w.data.Flush()
	if cerr := w.dataF.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	idx, err := os.Create(filepath.Join(w.dir, IndexFileName))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(idx)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(w.offsets)))
	if _, err := bw.Write(buf[:]); err != nil {
		idx.Close()
		return err
	}
	for _, off := range append(w.offsets, w.off) { // sentinel end offset
		binary.LittleEndian.PutUint64(buf[:], off)
		if _, err := bw.Write(buf[:]); err != nil {
			idx.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		idx.Close()
		return err
	}
	return idx.Close()
}

// encodeTree renders t as: uvarint node count, then per node in
// pre-order: uvarint (parent+1), uvarint label length, label bytes.
// Structure (children, pre/post/level) is recomputed on load.
func encodeTree(buf []byte, t *lingtree.Tree) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(t.Nodes)))
	buf = append(buf, tmp[:n]...)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		n = binary.PutUvarint(tmp[:], uint64(nd.Parent+1))
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(len(nd.Label)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, nd.Label...)
	}
	return buf
}

func decodeTree(tid int, buf []byte) (*lingtree.Tree, error) {
	off := 0
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return 0, fmt.Errorf("treebank: corrupt tree %d at offset %d", tid, off)
		}
		off += n
		return v, nil
	}
	n, err := uv()
	if err != nil {
		return nil, err
	}
	b := lingtree.NewBuilder(tid)
	for i := uint64(0); i < n; i++ {
		p, err := uv()
		if err != nil {
			return nil, err
		}
		llen, err := uv()
		if err != nil {
			return nil, err
		}
		if off+int(llen) > len(buf) {
			return nil, fmt.Errorf("treebank: corrupt label in tree %d", tid)
		}
		label := string(buf[off : off+int(llen)])
		off += int(llen)
		parent := int(p) - 1
		if i == 0 && parent != lingtree.NoParent {
			return nil, fmt.Errorf("treebank: tree %d does not start at a root", tid)
		}
		if i > 0 && (parent < 0 || parent >= int(i)) {
			return nil, fmt.Errorf("treebank: tree %d node %d has bad parent %d", tid, i, parent)
		}
		b.Add(parent, label)
	}
	if off != len(buf) {
		return nil, fmt.Errorf("treebank: %d trailing bytes in tree %d", len(buf)-off, tid)
	}
	return b.Tree(), nil
}

// Store is a read-only tree store.
type Store struct {
	data    *os.File
	offsets []uint64 // len = NumTrees()+1; final entry is the data size
}

// OpenStore opens the store in dir.
func OpenStore(dir string) (*Store, error) {
	idxBytes, err := os.ReadFile(filepath.Join(dir, IndexFileName))
	if err != nil {
		return nil, err
	}
	if len(idxBytes) < 8 {
		return nil, fmt.Errorf("treebank: truncated index in %s", dir)
	}
	n := binary.LittleEndian.Uint64(idxBytes)
	if uint64(len(idxBytes)) != 8+(n+1)*8 {
		return nil, fmt.Errorf("treebank: index in %s has wrong size", dir)
	}
	offsets := make([]uint64, n+1)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint64(idxBytes[8+i*8:])
	}
	data, err := os.Open(filepath.Join(dir, DataFileName))
	if err != nil {
		return nil, err
	}
	return &Store{data: data, offsets: offsets}, nil
}

// NumTrees returns the number of stored trees.
func (s *Store) NumTrees() int { return len(s.offsets) - 1 }

// SizeBytes returns the data file size (the paper's "data file size"
// reference point for index overhead).
func (s *Store) SizeBytes() int64 { return int64(s.offsets[len(s.offsets)-1]) }

// Tree fetches tree tid from disk.
func (s *Store) Tree(tid int) (*lingtree.Tree, error) {
	if tid < 0 || tid >= s.NumTrees() {
		return nil, fmt.Errorf("treebank: tid %d out of range [0, %d)", tid, s.NumTrees())
	}
	lo, hi := s.offsets[tid], s.offsets[tid+1]
	buf := make([]byte, hi-lo)
	if _, err := s.data.ReadAt(buf, int64(lo)); err != nil && err != io.EOF {
		return nil, err
	}
	return decodeTree(tid, buf)
}

// Close releases the data file.
func (s *Store) Close() error { return s.data.Close() }

// TreeSource fetches trees by identifier; *Store implements it from
// disk and Slice from memory. Index post-validation phases take a
// TreeSource so their data-access cost is explicit and comparable.
type TreeSource interface {
	Tree(tid int) (*lingtree.Tree, error)
}

// Slice adapts an in-memory corpus to TreeSource (tests mostly).
type Slice []*lingtree.Tree

// Tree returns tree tid.
func (s Slice) Tree(tid int) (*lingtree.Tree, error) {
	if tid < 0 || tid >= len(s) {
		return nil, fmt.Errorf("treebank: tid %d out of range [0, %d)", tid, len(s))
	}
	return s[tid], nil
}

// Forest is an in-memory corpus.
type Forest struct {
	Trees []*lingtree.Tree // all trees, indexed by tid
}

// Load reads every tree of a Store into memory (the TGrep2 model).
func Load(s *Store) (*Forest, error) {
	f := &Forest{Trees: make([]*lingtree.Tree, s.NumTrees())}
	for i := range f.Trees {
		t, err := s.Tree(i)
		if err != nil {
			return nil, err
		}
		f.Trees[i] = t
	}
	return f, nil
}

// Write stores all trees of a slice under dir.
func Write(dir string, trees []*lingtree.Tree) error {
	w, err := NewWriter(dir)
	if err != nil {
		return err
	}
	for _, t := range trees {
		if err := w.Append(t); err != nil {
			w.dataF.Close()
			return err
		}
	}
	return w.Close()
}
