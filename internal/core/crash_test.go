//go:build unix

package core_test

// Crash test of the durable publish path, after ALICE (Pillai et al.,
// "All File Systems Are Not Created Equal", OSDI 2014). Each operation
// that publishes a manifest runs once per crash point k: the first k
// disk operations of its publish path take effect, every later one
// fails without effect, and the crash states a file system permits are
// rebuilt from what crashFS knows the syncs made durable. Two images
// bound each crash point — in the durable image no unsynced directory
// change (create, link, rename, removal) reached the disk, in the
// current image all of them did — and in both, file contents written
// since their last sync are cut to half. Every image must reopen at
// exactly the old generation or the new one (the new one once the
// operation has returned), answer queries as internal/match does on
// that generation's trees, and hold nothing the sweep should remove —
// only the segments a later publish restages, and for a follower the
// staging directories its next sync removes, which it then must.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/lingtree"
	"repro/internal/match"
	"repro/internal/postings"
	"repro/internal/query"
	"repro/internal/server"
	"repro/si"
)

var errCrashed = errors.New("crashfs: crashed")

// crashFS is the crash test's file system: it applies operations to
// the real directory tree and records, per inode, what each sync made
// durable. Operations past crashAt fail without effect.
type crashFS struct {
	mu      sync.Mutex
	ops     int
	crashAt int                          // operations after the first crashAt fail; < 0 never
	files   map[uint64][]byte            // durable contents by inode
	dirs    map[uint64]map[string]dentry // durable entries by directory inode
	root    uint64
}

// dentry is one durable directory entry.
type dentry struct {
	ino uint64
	dir bool
}

func inode(path string) (uint64, error) {
	fi, err := os.Lstat(path)
	if err != nil {
		return 0, err
	}
	return fi.Sys().(*syscall.Stat_t).Ino, nil
}

// newCrashFS starts recording at root, whose whole tree is durable.
func newCrashFS(root string, crashAt int) (*crashFS, error) {
	c := &crashFS{crashAt: crashAt, files: map[uint64][]byte{}, dirs: map[uint64]map[string]dentry{}}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		return c.record(p)
	})
	if err == nil {
		c.root, err = inode(root)
	}
	return c, err
}

// record makes path durable as it is now: a file's contents, or a
// directory's entries. A file newly named by a directory but never
// synced keeps only half its current contents.
func (c *crashFS) record(path string) error {
	fi, err := os.Lstat(path)
	if err != nil {
		return err
	}
	ino := fi.Sys().(*syscall.Stat_t).Ino
	if !fi.IsDir() {
		data, err := os.ReadFile(path)
		c.files[ino] = data
		return err
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return err
	}
	names := make(map[string]dentry, len(entries))
	for _, e := range entries {
		p := filepath.Join(path, e.Name())
		child, err := inode(p)
		if err != nil {
			return err
		}
		names[e.Name()] = dentry{child, e.IsDir()}
		if _, ok := c.files[child]; !ok && !e.IsDir() {
			data, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			c.files[child] = data[:len(data)/2]
		}
	}
	c.dirs[ino] = names
	return nil
}

func (c *crashFS) do(op func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ops++
	if c.crashAt >= 0 && c.ops > c.crashAt {
		return errCrashed
	}
	return op()
}

// ReadDir lists p; a listing changes nothing, so it is no crash point.
func (c *crashFS) ReadDir(p string) ([]os.DirEntry, error) { return os.ReadDir(p) }

func (c *crashFS) MkdirAll(p string) error {
	return c.do(func() error { return os.MkdirAll(p, 0o755) })
}
func (c *crashFS) WriteFile(p string, data []byte) error {
	return c.do(func() error { return os.WriteFile(p, data, 0o644) })
}
func (c *crashFS) Link(o, n string) error   { return c.do(func() error { return os.Link(o, n) }) }
func (c *crashFS) Rename(o, n string) error { return c.do(func() error { return os.Rename(o, n) }) }
func (c *crashFS) RemoveAll(p string) error { return c.do(func() error { return os.RemoveAll(p) }) }
func (c *crashFS) Sync(p string) error      { return c.do(func() error { return c.record(p) }) }

// durableImage writes to dst the tree as if no unsynced directory
// change had reached the disk.
func (c *crashFS) durableImage(dst string) error { return c.materialize(dst, c.root) }

func (c *crashFS) materialize(dst string, ino uint64) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for name, e := range c.dirs[ino] {
		var err error
		if e.dir {
			err = c.materialize(filepath.Join(dst, name), e.ino)
		} else {
			err = os.WriteFile(filepath.Join(dst, name), c.files[e.ino], 0o644)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// currentImage copies the tree at src to dst as it is, each file whose
// contents were not synced cut to half.
func (c *crashFS) currentImage(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		out := filepath.Join(dst, strings.TrimPrefix(p, src))
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		ino, err := inode(p)
		if err != nil {
			return err
		}
		if durable, ok := c.files[ino]; !ok || !bytes.Equal(durable, data) {
			data = data[:len(data)/2]
		}
		return os.WriteFile(out, data, 0o644)
	})
}

// corpus is a generation's trees by global tid; nil marks a tombstone.
type corpus []*lingtree.Tree

func (c corpus) without(tids ...int) corpus {
	out := slices.Clone(c)
	for _, tid := range tids {
		out[tid] = nil
	}
	return out
}

func (c corpus) compacted() corpus {
	return slices.DeleteFunc(slices.Clone(c), func(t *lingtree.Tree) bool { return t == nil })
}

var crashQueries = []string{"NP(DT)(NN)", "S(NP)(VP)", "VP(VBZ)(NP(DT))", "S(//NN)", "PP(IN)(NP)"}

// truth is the exact matcher's answer to src over c.
func truth(c corpus, src string) []core.Match {
	m := match.New(query.MustParse(src))
	var out []core.Match
	for tid, t := range c {
		if t == nil {
			continue
		}
		for _, r := range m.Roots(t) {
			out = append(out, core.Match{TID: uint32(tid), Root: uint32(r)})
		}
	}
	return out
}

// crashCase is one publishing operation under test.
type crashCase struct {
	name  string
	from  string         // the index directory the operation starts on
	gens  map[int]corpus // generations a crash may leave, with their trees
	final int            // the generation the completed operation publishes
	// start readies the operation on dir, returning it and a cleanup.
	start func(t *testing.T, dir string) (op func() error, done func())
	// resume, when set, reruns the operation to completion on a crash
	// image; it must reclaim the staging directories the open leaves.
	resume func(dir string) error
}

// liveOp opens dir and runs op on the handle.
func liveOp(op func(l *core.Live) error) func(*testing.T, string) (func() error, func()) {
	return func(t *testing.T, dir string) (func() error, func()) {
		l, err := core.OpenLive(dir, core.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return func() error { return op(l) }, func() { l.Close() }
	}
}

// copyTree copies the directory tree src to dst.
func copyTree(t *testing.T, src, dst string) string {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		out := filepath.Join(dst, strings.TrimPrefix(p, src))
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(p)
		if err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// runCrash runs cc on a copy of cc.from under crashFS, crashing after
// crashAt operations (never when negative).
func runCrash(t *testing.T, cc crashCase, dir string, crashAt int) (*crashFS, error) {
	t.Helper()
	copyTree(t, cc.from, dir)
	op, done := cc.start(t, dir)
	defer done()
	c, err := newCrashFS(dir, crashAt)
	if err != nil {
		t.Fatal(err)
	}
	restore := core.SetFS(c)
	defer restore()
	return c, op()
}

// checkImage reopens a crash image and checks generation, answers and
// the sweep, then the resumed operation if the case has one.
func checkImage(t *testing.T, label, dir string, cc crashCase, returned bool) {
	t.Helper()
	before := fingerprint(t, dir)
	l, err := core.OpenLive(dir, core.OpenOptions{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	gen := l.Generation()
	want, ok := cc.gens[gen]
	if !ok || returned && gen != cc.final {
		l.Close()
		t.Fatalf("%s: reopened at generation %d; want one of %v, and %d once the operation returned",
			label, gen, slices.Sorted(maps.Keys(cc.gens)), cc.final)
	}
	if n := l.Meta().NumTrees; n != len(want) {
		t.Fatalf("%s: generation %d holds %d trees, want %d", label, gen, n, len(want))
	}
	for _, q := range crashQueries {
		res, err := l.Search(context.Background(), q, core.SearchOpts{})
		if err != nil {
			t.Fatalf("%s: %s: %v", label, q, err)
		}
		if !slices.Equal(res.Matches, truth(want, q)) {
			t.Fatalf("%s: generation %d answers %s with %d matches, the exact matcher %d",
				label, gen, q, len(res.Matches), len(truth(want, q)))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"meta.json": true, "meta.json.tmp": true}
	if gen == 0 {
		for _, f := range []string{"subtree.idx", "trees.dat", "trees.idx"} {
			allowed[f] = true
		}
	} else {
		raw, err := os.ReadFile(filepath.Join(dir, core.MetaFileName))
		if err != nil {
			t.Fatal(err)
		}
		var man core.Meta
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		for _, s := range man.Segments {
			allowed[s] = true
		}
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		var n int
		_, err := fmt.Sscanf(e.Name(), "seg-%06d", &n)
		newer := err == nil && n > gen // a later publish restages it
		staging := cc.resume != nil && strings.HasPrefix(e.Name(), ".sync-")
		if !allowed[e.Name()] && !newer && !staging && !(gen == 0 && strings.HasPrefix(e.Name(), "shard-")) {
			t.Fatalf("%s: %s survived the open's sweep at generation %d", label, e.Name(), gen)
		}
	}
	if fingerprint(t, dir) != before {
		// The sweep removed something: what it left must open the same.
		l, err = core.OpenLive(dir, core.OpenOptions{})
		if err != nil || l.Generation() != gen {
			t.Fatalf("%s: reopen after the sweep: %v", label, err)
		}
		l.Close()
	}
	if cc.resume != nil {
		if err := cc.resume(dir); err != nil {
			t.Fatalf("%s: resume: %v", label, err)
		}
		resumed := cc
		resumed.resume = nil
		checkImage(t, label+", resumed", dir, resumed, true)
	}
}

// fingerprint hashes the names and contents of the tree at dir.
func fingerprint(t *testing.T, dir string) string {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			fmt.Fprintf(h, "%s/\n", strings.TrimPrefix(p, dir))
			return err
		}
		data, err := os.ReadFile(p)
		fmt.Fprintf(h, "%s %d\n", strings.TrimPrefix(p, dir), len(data))
		h.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(h.Sum(nil))
}

// crashEveryStep runs cc to completion once, counting its disk
// operations, then crashes it after each prefix of them and checks
// both images. It returns the completed directory and the number of
// crash points.
func crashEveryStep(t *testing.T, cc crashCase) (string, int) {
	t.Helper()
	done := filepath.Join(t.TempDir(), cc.name)
	c, err := runCrash(t, cc, done, -1)
	if err != nil {
		t.Fatalf("%s: %v", cc.name, err)
	}
	n := c.ops
	seen := map[string]bool{} // images already checked, by fingerprint
	for k := 0; k <= n; k++ {
		scratch := t.TempDir()
		work := filepath.Join(scratch, "work")
		c, _ := runCrash(t, cc, work, k)
		durable, current := filepath.Join(scratch, "durable"), filepath.Join(scratch, "current")
		if err := c.durableImage(durable); err != nil {
			t.Fatal(err)
		}
		if err := c.currentImage(work, current); err != nil {
			t.Fatal(err)
		}
		for _, img := range []string{durable, current} {
			if key := fingerprint(t, img) + fmt.Sprint(k == n); !seen[key] {
				seen[key] = true
				label := fmt.Sprintf("%s, crash after %d of %d, %s image", cc.name, k, n, filepath.Base(img))
				checkImage(t, label, img, cc, k == n)
			}
		}
		os.RemoveAll(scratch)
	}
	return done, n + 1
}

// TestCrashAtEveryStep crashes every publishing operation — Append on
// a legacy root (which promotes it) and on a segmented one, Delete
// (promoting an unsharded legacy root), Update, Compact and a
// follower's Sync — after every disk operation of its publish path.
func TestCrashAtEveryStep(t *testing.T) {
	ctx := context.Background()
	trees := corpus(corpusgen.New(2012).Trees(24))
	opts := core.Options{MSS: 3, Coding: postings.RootSplit}
	legacy := func(shards int) string {
		dir := filepath.Join(t.TempDir(), "legacy")
		if _, err := core.BuildSharded(dir, trees[:12], opts, shards); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	c0 := trees[:12]
	c1 := trees[:16]
	c2 := trees[:20]
	c3 := c2.without(2, 7, 17)
	c4 := append(c3.without(0, 13), trees[20:24]...)

	points := map[string]int{}
	run := func(cc crashCase) string {
		dir, n := crashEveryStep(t, cc)
		points[cc.name] = n
		return dir
	}
	run(crashCase{name: "delete-legacy", from: legacy(1), final: 2,
		gens: map[int]corpus{0: c0, 1: c0, 2: c0.without(4)},
		start: liveOp(func(l *core.Live) error {
			_, err := l.Delete(ctx, []int{4})
			return err
		})})
	t1 := run(crashCase{name: "append-legacy", from: legacy(2), final: 2,
		gens: map[int]corpus{0: c0, 1: c0, 2: c1},
		start: liveOp(func(l *core.Live) error {
			_, err := l.Append(ctx, trees[12:16], 1)
			return err
		})})
	t2 := run(crashCase{name: "append", from: t1, final: 3,
		gens: map[int]corpus{2: c1, 3: c2},
		start: liveOp(func(l *core.Live) error {
			_, err := l.Append(ctx, trees[16:20], 2)
			return err
		})})
	t3 := run(crashCase{name: "delete", from: t2, final: 4,
		gens: map[int]corpus{3: c2, 4: c3},
		start: liveOp(func(l *core.Live) error {
			_, err := l.Delete(ctx, []int{2, 7, 17})
			return err
		})})
	t4 := run(crashCase{name: "update", from: t3, final: 5,
		gens: map[int]corpus{4: c3, 5: c4},
		start: liveOp(func(l *core.Live) error {
			_, _, err := l.Update(ctx, []int{0, 13}, trees[20:24], 1)
			return err
		})})
	run(crashCase{name: "compact", from: t4, final: 6,
		gens: map[int]corpus{5: c4, 6: c4.compacted()},
		start: liveOp(func(l *core.Live) error {
			_, _, err := l.Compact(ctx, core.CompactOptions{Shards: 2})
			return err
		})})

	// The follower starts synced at generation 3; the leader then
	// updates and compacts, so the sync fetches one segment and drops
	// three.
	leaderDir := copyTree(t, t2, filepath.Join(t.TempDir(), "leader"))
	leader, err := si.Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ts := httptest.NewServer(server.New(leader, server.Config{MaxMatches: -1, Dir: leaderDir}))
	defer ts.Close()
	follower := filepath.Join(t.TempDir(), "follower")
	if _, err := cluster.Sync(ctx, http.DefaultClient, ts.URL, follower); err != nil {
		t.Fatal(err)
	}
	if _, _, err := leader.Update(ctx, []int{0, 13}, trees[20:24]); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	sync := func(dir string) error {
		_, err := cluster.Sync(ctx, http.DefaultClient, ts.URL, dir)
		return err
	}
	run(crashCase{name: "sync", from: follower, final: 5, resume: sync,
		gens: map[int]corpus{3: c2, 5: append(c2.without(0, 13), trees[20:24]...).compacted()},
		start: func(t *testing.T, dir string) (func() error, func()) {
			return func() error { return sync(dir) }, func() {}
		}})
	t.Logf("crash points per operation: %v", points)
}
