package server

import (
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
)

// registerReplication mounts /manifest and /segment/.
func registerReplication(s *Server) {
	s.route("/manifest", http.MethodGet, s.replicated(s.handleManifest))
	s.route("/segment/", http.MethodGet, s.replicated(s.handleSegment))
}

// replicated answers 404 in place of h unless Config.Dir names the
// served index directory.
func (s *Server) replicated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Dir == "" {
			s.fail(w, r, http.StatusNotFound, "replication is disabled (server not configured with an index directory)")
			return
		}
		h(w, r)
	}
}

// handleManifest serves GET /manifest: the on-disk index manifest
// (meta.json), byte-for-byte. A follower polls it for the generation
// counter and segment list, pulls any segments it is missing via
// /segment, writes the same manifest bytes locally and calls its own
// Reload — the atomic-publish contract means whatever manifest this
// endpoint returns names only fully published segments.
func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	data, err := os.ReadFile(filepath.Join(s.cfg.Dir, core.MetaFileName))
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, "read manifest: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleSegment serves GET /segment/{name}/{file}: one payload file of
// a published segment, range-served (http.ServeFile) so an interrupted
// follower pull can resume. {name} must be a seg-NNNNNN directory and
// {file} one of the fixed payload paths (meta.json, subtree.idx,
// trees.dat, trees.idx, optionally under one shard-NNNN/ level);
// the allowlist is structural, so traversal and absolute paths are
// unrepresentable rather than filtered. Segments are immutable once
// published, which is what makes byte-range resumption sound.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/segment/")
	name, file, found := strings.Cut(rest, "/")
	if !found || !core.IsSegmentName(name) || !core.IsSegmentFile(file) {
		s.fail(w, r, http.StatusNotFound, "no such segment file (want /segment/seg-NNNNNN/{meta.json|subtree.idx|trees.dat|trees.idx}, optionally under shard-NNNN/)")
		return
	}
	http.ServeFile(w, r, filepath.Join(s.cfg.Dir, name, filepath.FromSlash(file)))
}
