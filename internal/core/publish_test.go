package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/postings"
)

// segmentedRoot builds a 20-tree index, appends 10 trees (promoting it
// to seg-000001 + seg-000002 at generation 2) and returns its handle.
func segmentedRoot(t testing.TB) *Live {
	t.Helper()
	trees := shardCorpus(30)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees[:20], Options{MSS: 3, Coding: postings.RootSplit}, 1); err != nil {
		t.Fatal(err)
	}
	l := openDir(t, dir, OpenOptions{})
	if _, err := l.Append(context.Background(), trees[20:], 1); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestManifestNamesStayUnderRoot is the regression test for unchecked
// manifest segment names: a manifest listing seg-000001, ../victim and
// seg-000001 again used to open as 60 trees over a 20-tree segment —
// the sibling directory victim, outside the root, served as a segment —
// and a compaction then deleted victim. Every malformed list must now
// fail OpenLive and Reload before anything is opened or removed.
func TestManifestNamesStayUnderRoot(t *testing.T) {
	l := segmentedRoot(t)
	victim := filepath.Join(filepath.Dir(l.dir), "victim")
	if err := os.CopyFS(victim, os.DirFS(filepath.Join(l.dir, segDirName(1)))); err != nil {
		t.Fatal(err)
	}
	for _, segs := range [][]string{
		{"seg-000001", "../victim", "seg-000001"},
		{"../victim"},
		{victim},
		{"seg-000001", "seg-000001"},
		{"seg-000001", "seg-000003"}, // newer than the generation: where a writer stages
		{},
	} {
		man := l.Meta()
		man.FormatVersion, man.Generation, man.Segments = FormatSegmented, 2, segs
		if err := writeMeta(l.dir, &man); err != nil {
			t.Fatal(err)
		}
		if bad, err := OpenLive(l.dir, OpenOptions{}); err == nil {
			n := bad.Meta().NumTrees
			bad.Compact(context.Background(), CompactOptions{})
			bad.Close()
			t.Fatalf("OpenLive accepted segments %q, serving %d trees", segs, n)
		}
		man.Generation = 3
		if err := writeMeta(l.dir, &man); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Reload(); err == nil {
			t.Fatalf("Reload accepted segments %q", segs)
		}
	}
	if _, err := os.Stat(filepath.Join(victim, metaFileName)); err != nil {
		t.Fatalf("the directory outside the root was touched: %v", err)
	}
	if l.Meta().NumTrees != 30 || l.Generation() != 2 {
		t.Fatalf("rejected reloads changed the handle: %d trees at generation %d", l.Meta().NumTrees, l.Generation())
	}
}

// hookFS is osFS with a hook run before each listing, write, rename
// and sync; an error from the hook fails the operation.
type hookFS struct {
	osFS
	hook func(op, path string) error
}

func (h hookFS) ReadDir(p string) ([]os.DirEntry, error) {
	if err := h.hook("readdir", p); err != nil {
		return nil, err
	}
	return h.osFS.ReadDir(p)
}

func (h hookFS) WriteFile(p string, data []byte) error {
	if err := h.hook("write", p); err != nil {
		return err
	}
	return h.osFS.WriteFile(p, data)
}

func (h hookFS) Rename(oldpath, newpath string) error {
	if err := h.hook("rename", newpath); err != nil {
		return err
	}
	return h.osFS.Rename(oldpath, newpath)
}

func (h hookFS) Sync(p string) error {
	if err := h.hook("sync", p); err != nil {
		return err
	}
	return h.osFS.Sync(p)
}

// TestSweepKeepsWhatAWriterStages interleaves a reader's sweep with a
// writer holding another handle: the reader reads the manifest at
// generation 2, and before it lists the root the writer commits
// generation 3 and stages seg-000004, and a follower starts a download.
// The sweep must leave the staged segment and the staging directory,
// so the writer's commit names a segment that exists. It used to
// remove both, and the index committed at generation 4 no longer
// opened.
func TestSweepKeepsWhatAWriterStages(t *testing.T) {
	ctx := context.Background()
	writer := segmentedRoot(t)
	reader := openDir(t, writer.dir, OpenOptions{})
	more := shardCorpus(50)[30:]
	staging := filepath.Join(writer.dir, syncStagePrefix+segDirName(9))
	staged, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	interleaved := false
	restore := SetFS(hookFS{hook: func(op, path string) error {
		switch {
		case op == "readdir" && path == writer.dir && !interleaved:
			interleaved = true
			if _, err := writer.Append(ctx, more[:10], 1); err != nil {
				return err
			}
			go func() {
				_, err := writer.Append(ctx, more[10:], 1)
				done <- err
			}()
			<-staged
			return os.Mkdir(staging, 0o755)
		case op == "write" && path == filepath.Join(writer.dir, metaFileName+".tmp") && writer.Generation() == 3:
			close(staged) // seg-000004 is built, synced and open
			<-release
		}
		return nil
	}})
	defer restore()
	if _, err := reader.Reload(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !interleaved {
		t.Fatal("the reload never listed the root")
	}
	if _, err := os.Stat(staging); err != nil {
		t.Fatalf("the sweep removed a follower's staging directory: %v", err)
	}
	l, err := OpenLive(writer.dir, OpenOptions{})
	if err != nil {
		t.Fatalf("the writer's generation 4 does not open: %v", err)
	}
	defer l.Close()
	if l.Generation() != 4 || l.Meta().NumTrees != 50 {
		t.Fatalf("reopened at generation %d with %d trees, want 4 and 50", l.Generation(), l.Meta().NumTrees)
	}
	if _, err := reader.Reload(); err != nil || reader.Meta().NumTrees != 50 {
		t.Fatalf("reader reload: %v, %d trees", err, reader.Meta().NumTrees)
	}
}

// TestPublishStandsWhenTheRootSyncFails fails the root directory's
// fsync right after each manifest rename, for a promotion and then an
// append. The root already names the new manifest, so the handle must
// serve it and the next publish must build on it. The handle used to
// keep the old epoch, and the retried promotion linked the new
// manifest into seg-000001 as the segment's meta, after which the
// index no longer opened.
func TestPublishStandsWhenTheRootSyncFails(t *testing.T) {
	ctx := context.Background()
	trees := shardCorpus(40)
	dir := filepath.Join(t.TempDir(), "ix")
	if _, err := BuildSharded(dir, trees[:20], Options{MSS: 3, Coding: postings.RootSplit}, 1); err != nil {
		t.Fatal(err)
	}
	l := openDir(t, dir, OpenOptions{})
	errSync := errors.New("root fsync failed")
	renamed := false
	restore := SetFS(hookFS{hook: func(op, path string) error {
		switch {
		case op == "rename" && path == filepath.Join(dir, metaFileName):
			renamed = true
		case op == "sync" && path == dir && renamed:
			renamed = false
			return errSync
		}
		return nil
	}})
	for i, want := range []struct{ gen, trees int }{{1, 20}, {2, 30}} {
		_, err := l.Append(ctx, trees[20:30], 1)
		if !errors.Is(err, errSync) {
			t.Fatalf("append %d: err = %v, want the root fsync's", i, err)
		}
		if l.Generation() != want.gen || l.Meta().NumTrees != want.trees {
			t.Fatalf("append %d: serving generation %d with %d trees, want %d and %d",
				i, l.Generation(), l.Meta().NumTrees, want.gen, want.trees)
		}
	}
	restore()
	if _, err := l.Append(ctx, trees[30:], 1); err != nil {
		t.Fatal(err)
	}
	if meta, err := readMeta(filepath.Join(dir, segDirName(1))); err != nil || meta.FormatVersion == FormatSegmented {
		t.Fatalf("seg-000001's meta: format %d, %v", meta.FormatVersion, err)
	}
	again, err := OpenLive(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Generation() != 3 || again.Meta().NumTrees != 40 {
		t.Fatalf("reopened at generation %d with %d trees, want 3 and 40", again.Generation(), again.Meta().NumTrees)
	}
}

// FuzzManifest feeds arbitrary meta.json bytes to OpenLive, then to
// Reload, at a root holding one valid segment (seg-000001). Either
// must fail or serve only segments that lie under the root; neither
// may panic.
func FuzzManifest(f *testing.F) {
	l := segmentedRoot(f)
	good, err := os.ReadFile(filepath.Join(l.dir, metaFileName))
	if err != nil {
		f.Fatal(err)
	}
	var man Meta
	if err := json.Unmarshal(good, &man); err != nil {
		f.Fatal(err)
	}
	man.Segments = man.Segments[:1]
	man.NumTrees = 20
	valid, err := json.Marshal(man)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	seg := filepath.Join(l.dir, segDirName(1))
	f.Fuzz(func(t *testing.T, raw []byte) {
		root := filepath.Join(t.TempDir(), "ix")
		if err := os.CopyFS(filepath.Join(root, segDirName(1)), os.DirFS(seg)); err != nil {
			t.Fatal(err)
		}
		underRoot := func(l *Live) {
			for _, sg := range l.cur.Load().segs {
				if sg.name != "" && !IsSegmentName(sg.name) {
					t.Fatalf("serving segment %q, not a directory under the root", sg.name)
				}
			}
		}
		if err := os.WriteFile(filepath.Join(root, metaFileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := OpenLive(root, OpenOptions{}); err == nil {
			underRoot(l)
			l.Close()
		}
		if err := os.WriteFile(filepath.Join(root, metaFileName), valid, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenLive(root, OpenOptions{})
		if err != nil {
			t.Fatalf("valid manifest: %v", err)
		}
		defer l.Close()
		if err := os.WriteFile(filepath.Join(root, metaFileName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Reload(); err == nil {
			underRoot(l)
		}
	})
}
