package treebank

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpusgen"
	"repro/internal/lingtree"
)

func TestWriteOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trees := corpusgen.New(5).Trees(50)
	if err := Write(dir, trees); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumTrees() != 50 {
		t.Fatalf("NumTrees = %d", s.NumTrees())
	}
	if s.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
	for _, tid := range []int{0, 1, 25, 49} {
		got, err := s.Tree(tid)
		if err != nil {
			t.Fatalf("Tree(%d): %v", tid, err)
		}
		if got.String() != trees[tid].String() {
			t.Errorf("tree %d differs:\n%s\n%s", tid, got, trees[tid])
		}
		if got.TID != tid {
			t.Errorf("tree %d has TID %d", tid, got.TID)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("tree %d: %v", tid, err)
		}
	}
	if _, err := s.Tree(50); err == nil {
		t.Error("want error for out-of-range tid")
	}
	if _, err := s.Tree(-1); err == nil {
		t.Error("want error for negative tid")
	}
}

func TestAppendOrderEnforced(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := lingtree.MustParse(3, "(A b)")
	if err := w.Append(tr); err == nil {
		t.Error("want error appending tid 3 first")
	}
	if err := w.Append(lingtree.MustParse(0, "(A b)")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStore(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, nil); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumTrees() != 0 {
		t.Errorf("NumTrees = %d", s.NumTrees())
	}
}

func TestLoadForest(t *testing.T) {
	dir := t.TempDir()
	trees := corpusgen.New(1).Trees(10)
	if err := Write(dir, trees); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := Load(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Trees) != 10 {
		t.Fatalf("forest has %d trees", len(f.Trees))
	}
	for i, tr := range f.Trees {
		if tr.String() != trees[i].String() {
			t.Errorf("tree %d differs", i)
		}
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := OpenStore(t.TempDir()); err == nil {
		t.Error("want error for missing store")
	}
}

// TestCloseReleasesDataFileOnFlushError writes through /dev/full, so
// the final flush fails with ENOSPC: Close must report it and still
// close the data file.
func TestCloseReleasesDataFileOnFlushError(t *testing.T) {
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, DataFileName)); err != nil {
		t.Skip(err)
	}
	w, err := NewWriter(dir)
	if err != nil {
		t.Skip(err)
	}
	if err := w.Append(corpusgen.New(5).Trees(1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close on a full device succeeded")
	}
	if err := w.dataF.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("data file still open after a failed Close: second close = %v", err)
	}
}
