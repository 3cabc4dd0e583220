package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/lingtree"
	"repro/internal/treebank"
)

// This file is the one durable publish path of a segmented root. Every
// change to the served segment set — Update (so Append and Delete),
// Compact, the promotion of a legacy root and a follower's sync — runs
// the same three steps:
//
//  1. Stage: build, hard-link or download the new segment under a name
//     no manifest lists, then fsync every file, every directory bottom
//     up and the root (syncTree), so the segment is durable before
//     anything names it.
//  2. Commit: write meta.json.tmp, fsync it, rename it over meta.json
//     and fsync the root (CommitManifest). The rename is the publish.
//  3. Sweep: the next open or reload removes what the committed
//     manifest no longer names and no writer can still be using; the
//     next sync removes what an interrupted one left.
//
// A crash at any point thus leaves the old manifest with its segments
// intact or the new one with its segments durable, plus unlisted
// leftovers the sweep reclaims. The fsync order is the one ALICE
// (Pillai et al., OSDI 2014) shows file systems need: contents before
// the entry that names them, the entry before the manifest that lists
// it. The write-once segment is zoekt's shard shape.

// fsys is the publish path's view of the disk: every write, link,
// rename, removal and sync of a publish, and the listing a sweep
// decides on, goes through it. osFS is the implementation; the crash
// test substitutes one that tracks what each sync made durable.
type fsys interface {
	ReadDir(path string) ([]os.DirEntry, error)
	MkdirAll(path string) error
	WriteFile(path string, data []byte) error
	Link(oldpath, newpath string) error
	Rename(oldpath, newpath string) error
	RemoveAll(path string) error
	// Sync flushes a file's contents or a directory's entries to stable
	// storage.
	Sync(path string) error
}

// disk is the file system the publish path writes through.
var disk fsys = osFS{}

// osFS is fsys over the operating system's file system.
type osFS struct{}

func (osFS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }
func (osFS) MkdirAll(path string) error                 { return os.MkdirAll(path, 0o755) }
func (osFS) WriteFile(path string, data []byte) error   { return os.WriteFile(path, data, 0o644) }
func (osFS) Link(oldpath, newpath string) error         { return os.Link(oldpath, newpath) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }

func (osFS) Sync(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncStagePrefix prefixes the directory a follower downloads a
// segment into before renaming it to the segment's name.
const syncStagePrefix = ".sync-"

// syncTree makes the tree at path durable: every file's contents, then
// every directory's entries from the deepest up, then path's entry in
// its parent. It is the one function that syncs segment payload.
func syncTree(path string) error {
	dirs := []string{filepath.Dir(path)}
	err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			dirs = append(dirs, p)
			return nil
		default:
			return disk.Sync(p)
		}
	})
	for i := len(dirs) - 1; err == nil && i >= 0; i-- {
		err = disk.Sync(dirs[i])
	}
	return err
}

// CommitManifest publishes raw as the manifest of the root dir: it
// writes meta.json.tmp, fsyncs it, renames it over meta.json and
// fsyncs dir. It is the one place a manifest is renamed into place: a
// crash before the rename leaves the old manifest, and once it returns
// nil the new one is durable. Every segment raw lists must already be
// durable under its name. renamed reports that the rename happened, so
// the new manifest is what the root now serves even when the final
// fsync failed.
func CommitManifest(dir string, raw []byte) (renamed bool, err error) {
	tmp := filepath.Join(dir, metaFileName+".tmp")
	if err := disk.WriteFile(tmp, raw); err != nil {
		return false, err
	}
	if err := disk.Sync(tmp); err != nil {
		return false, err
	}
	if err := disk.Rename(tmp, filepath.Join(dir, metaFileName)); err != nil {
		return false, err
	}
	return true, disk.Sync(dir)
}

// segNumber is the generation in a segment name (seg-NNNNNN).
func segNumber(name string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(name, segDirPrefix))
	return n
}

// CheckManifest validates a segmented manifest's segment list before
// anything is opened or written on its behalf: the list is non-empty
// and every entry is a distinct seg-NNNNNN no newer than the manifest's
// generation — so no entry reaches outside the root, and none is a
// directory a writer may be staging.
func CheckManifest(m Meta) error {
	if len(m.Segments) == 0 {
		return errors.New("core: segmented manifest lists no segments")
	}
	seen := make(map[string]bool, len(m.Segments))
	for _, name := range m.Segments {
		if !IsSegmentName(name) || seen[name] {
			return fmt.Errorf("core: manifest lists invalid or duplicate segment %q", name)
		}
		if segNumber(name) > m.Generation {
			return fmt.Errorf("core: manifest at generation %d lists newer segment %q", m.Generation, name)
		}
		seen[name] = true
	}
	return nil
}

// sweep removes from the root, whose manifest is m, what m does not
// name and nothing can still be using: every seg-NNNNNN directory that
// m does not list, is no newer than m's generation and is not still
// open in this handle (a delisted one is removed when its last reader
// drains); and, under a segmented manifest, the root-level leaf payload
// a promotion leaves until its commit. A segment newer than m's
// generation is kept: another handle or process may have committed a
// later manifest since m was read and be staging it, and every later
// manifest lists only segments of m or newer than m's generation. It
// never removes the temp manifest, which a writer may be committing,
// nor a follower's staging directory (RemoveStaging). A failed removal
// is left for the next sweep.
func (l *Live) sweep(m Meta) {
	keep := make(map[string]bool, len(m.Segments))
	for _, name := range m.Segments {
		keep[name] = true
	}
	l.statsMu.Lock()
	for sg := range l.openSegs {
		keep[sg.name] = true
	}
	l.statsMu.Unlock()
	segmented := m.FormatVersion == FormatSegmented
	removeEntries(l.dir, func(name string) bool {
		return IsSegmentName(name) && !keep[name] && segNumber(name) <= m.Generation ||
			segmented && (slices.Contains(leafFiles, name) || isShardName(name))
	})
}

// RemoveStaging removes the follower staging directories of the root
// dir: what an interrupted sync left. Only the one process that syncs
// dir may call it, between syncs, since a staging directory is in use
// while its sync runs.
func RemoveStaging(dir string) error {
	return removeEntries(dir, func(name string) bool { return strings.HasPrefix(name, syncStagePrefix) })
}

// removeEntries removes every entry of dir whose name stale reports
// and returns the first failure; a missing dir holds nothing.
func removeEntries(dir string, stale func(name string) bool) error {
	entries, err := disk.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	for _, e := range entries {
		if stale(e.Name()) {
			if rerr := disk.RemoveAll(filepath.Join(dir, e.Name())); err == nil {
				err = rerr
			}
		}
	}
	return err
}

// leafFiles are the payload files of one index leaf besides its meta.
var leafFiles = []string{indexFileName, treebank.DataFileName, treebank.IndexFileName}

// stageSegment builds trees into the directory of generation gen —
// first removing whatever a failed or crashed attempt left there — with
// the index's MSS and coding, makes it durable and opens it. No
// manifest lists it yet; on failure it is removed again.
func (l *Live) stageSegment(ctx context.Context, gen int, trees []*lingtree.Tree, shards int) (*segment, *Meta, error) {
	name := segDirName(gen)
	path := filepath.Join(l.dir, name)
	if err := disk.RemoveAll(path); err != nil {
		return nil, nil, err
	}
	meta := l.info.Load().meta
	built, err := BuildSharded(path, trees, Options{MSS: meta.MSS, Coding: meta.Coding}, max(shards, 1))
	if err == nil {
		err = syncTree(path)
	}
	if err == nil {
		// The build can be long; honor a cancellation that arrived during
		// it rather than publishing a segment the caller was told failed.
		// (Cancellation after this point can still publish — exact-once
		// updates need caller-side dedup, not provided here.)
		err = ctx.Err()
	}
	var sg *segment
	if err == nil {
		sg, err = l.openSegment(name)
	}
	if err != nil {
		disk.RemoveAll(path)
		return nil, nil, err
	}
	return sg, built, nil
}

// stageFiles fills the directory path — first removing whatever a
// failed or crashed attempt left there — with files (paths relative to
// it, as SegmentPayload lists them), each written to dst by place, and
// makes it durable.
func stageFiles(path string, files []string, place func(file, dst string) error) error {
	err := disk.RemoveAll(path)
	for _, f := range files {
		if err != nil {
			break
		}
		dst := filepath.Join(path, filepath.FromSlash(f))
		if err = disk.MkdirAll(filepath.Dir(dst)); err == nil {
			err = place(f, dst)
		}
	}
	if err == nil {
		err = syncTree(path)
	}
	return err
}

// promoteLocked turns the legacy root served by sg into segment
// seg-000001 without moving anything: the legacy payload is hard-linked
// into the segment directory (open handles keep their files) beside a
// copy of the legacy meta, the segment is synced, and the generation-1
// manifest is committed over the root meta.json. Only then does the
// sweep remove the root copies. A crash at any point leaves the legacy
// index or the promoted one; an attempt that fails before its commit
// leaves seg-000001, which the retry replaces. Callers hold l.mu; once
// the commit has renamed the manifest the promoted epoch serves.
func (l *Live) promoteLocked(sg *segment) error {
	name := segDirName(1)
	path := filepath.Join(l.dir, name)
	files, err := SegmentPayload(sg.meta)
	var meta []byte
	if err == nil {
		meta, err = json.MarshalIndent(sg.meta, "", "  ")
	}
	if err == nil {
		err = stageFiles(path, files, func(f, dst string) error {
			if f == MetaFileName {
				return disk.WriteFile(dst, meta)
			}
			return disk.Link(filepath.Join(l.dir, filepath.FromSlash(f)), dst)
		})
	}
	if err == nil {
		sg.name = name
		if err = l.commitLocked(1, []*segment{sg}, nil); l.cur.Load().gen == 0 {
			sg.name = ""
		}
	}
	if err != nil {
		return fmt.Errorf("core: promoting %s to %s: %w", l.dir, name, err)
	}
	l.sweep(Meta{FormatVersion: FormatSegmented, Generation: 1, Segments: []string{name}})
	return nil
}

// commitLocked commits the manifest of segs at generation gen with the
// tombstone section tombs (nil omits it, which older readers parse
// unchanged) and swaps the serving epoch to it. If the commit fails
// before its rename, the epoch stays and a segment the caller staged is
// closed, its directory left for the next stage to replace. Once the
// rename has happened the new epoch serves, since the root names it,
// and a failed final fsync is still reported. Callers hold l.mu.
func (l *Live) commitLocked(gen int, segs []*segment, tombs map[string][]int) error {
	man := aggregateMeta(segs)
	man.FormatVersion = FormatSegmented
	man.Shards = 0
	man.Generation = gen
	// The manifest is rewritten on every publish; per-key statistics
	// stay out of it (they live in the immutable segment metas and are
	// re-merged in memory at open and publish — see Meta.KeyStats).
	man.KeyStats = nil
	man.Tombstones = tombs
	man.Segments = make([]string, len(segs))
	for i, sg := range segs {
		man.Segments[i] = sg.name
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	renamed := false
	if err == nil {
		renamed, err = CommitManifest(l.dir, raw)
	}
	if renamed {
		l.publishLocked(segs, gen, tombs)
		return err
	}
	old := l.cur.Load().segs
	for _, sg := range segs {
		if !slices.Contains(old, sg) {
			sg.close(sg)
		}
	}
	return err
}

// InstallSegment stages the segment name of the root dir as a follower
// receives it: fetch writes each of files (paths relative to the
// segment, as SegmentPayload lists them) to its destination under the
// .sync-<name> staging directory, which is then synced, renamed to name
// and made durable in dir. A directory present under a segment's name
// is thus always complete; a failure removes the staging directory.
func InstallSegment(dir, name string, files []string, fetch func(file, dst string) error) error {
	stage := filepath.Join(dir, syncStagePrefix+name)
	err := stageFiles(stage, files, fetch)
	if err == nil {
		err = disk.Rename(stage, filepath.Join(dir, name))
	}
	if err == nil {
		err = disk.Sync(dir)
	}
	if err != nil {
		disk.RemoveAll(stage)
	}
	return err
}
