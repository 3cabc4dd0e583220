package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
)

// This file is the follower half of replication: pull the leader's
// manifest over GET /manifest, fetch every segment the follower does
// not yet have over GET /segment/{name}/{file}, and commit the
// leader's manifest bytes locally through the engine's one durable
// publish path, then let the caller /reload. Segments are immutable
// once published, and a follower installs one under its name only
// after every file is downloaded and synced, so a segment directory
// present locally is complete and never re-fetched — each sync
// transfers only the delta. A sync interrupted at any point, crash
// included, leaves the old manifest or the new one; the next sync
// removes its staging directories, and the next open or reload sweeps
// the segments its manifest dropped.

// SyncResult reports what one Sync did.
type SyncResult struct {
	// Changed reports the local manifest was replaced (the caller
	// should Reload its index handle).
	Changed bool
	// Generation is the leader manifest's publish counter.
	Generation int
	// Fetched is how many segment directories were downloaded.
	Fetched int
}

// Sync replicates the leader's published segment set into dir. The
// leader must serve a segmented (v3) index — a legacy single-directory
// index has no named segments to pull; one /append on the leader
// promotes it. The leader's manifest is checked (core.CheckManifest)
// before anything is written; every missing segment is installed
// durably (core.InstallSegment) before the manifest bytes are committed
// (core.CommitManifest). Sync first removes the staging directories
// an interrupted sync left (core.RemoveStaging), so it is not safe for
// concurrent use on the same dir; a Reload or open of dir meanwhile is
// safe, as the sweep keeps segments newer than the local generation.
func Sync(ctx context.Context, hc *http.Client, leader, dir string) (SyncResult, error) {
	var res SyncResult
	leader = strings.TrimRight(leader, "/")
	raw, err := fetch(ctx, hc, leader+"/manifest")
	if err != nil {
		return res, fmt.Errorf("cluster: pull manifest: %w", err)
	}
	var man core.Meta
	if err := json.Unmarshal(raw, &man); err != nil {
		return res, fmt.Errorf("cluster: bad leader manifest: %w", err)
	}
	if man.FormatVersion != core.FormatSegmented {
		return res, fmt.Errorf("cluster: leader index is not segmented (format %d); append once to promote it before following", man.FormatVersion)
	}
	if err := core.CheckManifest(man); err != nil {
		return res, fmt.Errorf("cluster: leader manifest: %w", err)
	}
	res.Generation = man.Generation
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	core.RemoveStaging(dir) // an interrupted sync's downloads; a failure is retried next sync
	for _, seg := range man.Segments {
		fetched, err := fetchSegment(ctx, hc, leader, dir, seg)
		if err != nil {
			return res, fmt.Errorf("cluster: segment %s: %w", seg, err)
		}
		if fetched {
			res.Fetched++
		}
	}
	local, err := os.ReadFile(filepath.Join(dir, core.MetaFileName))
	if err == nil && res.Fetched == 0 && bytes.Equal(local, raw) {
		return res, nil // already at the leader's manifest
	}
	// Tombstones ride along: they live in the manifest, not the
	// segments. The local root serves the new manifest once it is
	// renamed in, even if the final fsync fails.
	res.Changed, err = core.CommitManifest(dir, raw)
	return res, err
}

// fetchSegment downloads one segment directory unless it already
// exists locally (segments are immutable, and installed only whole:
// present means complete).
func fetchSegment(ctx context.Context, hc *http.Client, leader, dir, seg string) (bool, error) {
	if _, err := os.Stat(filepath.Join(dir, seg, core.MetaFileName)); err == nil {
		return false, nil
	}
	metaRaw, err := fetch(ctx, hc, leader+"/segment/"+seg+"/"+core.MetaFileName)
	if err != nil {
		return false, err
	}
	var meta core.Meta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return false, fmt.Errorf("bad segment meta: %w", err)
	}
	files, err := core.SegmentPayload(meta)
	if err != nil {
		return false, err
	}
	err = core.InstallSegment(dir, seg, files, func(f, dst string) error {
		if f == core.MetaFileName {
			return os.WriteFile(dst, metaRaw, 0o644)
		}
		return download(ctx, hc, leader+"/segment/"+seg+"/"+f, dst)
	})
	return err == nil, err
}

// fetch GETs one URL fully into memory (manifests and segment metas
// are small).
func fetch(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	var buf bytes.Buffer
	err := get(ctx, hc, url, &buf)
	return buf.Bytes(), err
}

// download GETs one URL straight to a file (segment payloads can be
// large; they never transit memory whole).
func download(ctx context.Context, hc *http.Client, url, dst string) error {
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	err = get(ctx, hc, url, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// get GETs one URL into w, failing on any status but 200.
func get(ctx context.Context, hc *http.Client, url string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &nodeError{url: url, status: resp.StatusCode, msg: readErrorBody(resp)}
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
