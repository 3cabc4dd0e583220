package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/si"
)

// AppendResponse is the /append response body.
type AppendResponse struct {
	// Trees is the number of trees indexed by this append.
	Trees int `json:"trees"`
	// Segments is the live segment count after the append.
	Segments int `json:"segments"`
	// Generation is the index manifest's publish counter after the
	// append.
	Generation int `json:"generation"`
	// TookNS is the server-side build-and-publish time in nanoseconds.
	TookNS int64 `json:"took_ns"`
}

// DeleteRequest is the /delete request body.
type DeleteRequest struct {
	// TIDs are the tree identifiers to tombstone. Any out-of-range tid
	// rejects the whole request; already-deleted tids are accepted and
	// counted as no-ops.
	TIDs []int `json:"tids"`
}

// DeleteResponse is the /delete response body.
type DeleteResponse struct {
	// Deleted is the number of tids newly tombstoned by this request
	// (already-deleted tids are not re-counted).
	Deleted int `json:"deleted"`
	// LiveTrees is the searchable tree count after the delete.
	LiveTrees int `json:"live_trees"`
	// TombstonedTrees is the total tombstoned tree count after the
	// delete — the space a /compact would reclaim.
	TombstonedTrees int `json:"tombstoned_trees"`
	// Generation is the manifest publish counter after the delete; it
	// does not advance when every tid was already deleted.
	Generation int `json:"generation"`
	// TookNS is the server-side publish time in nanoseconds.
	TookNS int64 `json:"took_ns"`
}

// CompactResponse is the /compact response body.
type CompactResponse struct {
	// Compacted reports whether a compaction ran; false means the index
	// was already a single segment with no tombstones.
	Compacted bool `json:"compacted"`
	// Segments is the live segment count afterwards (1 when Compacted).
	Segments int `json:"segments"`
	// Generation is the manifest publish counter afterwards.
	Generation int `json:"generation"`
	// LiveTrees is the searchable tree count afterwards; after a
	// compaction it equals the stored tree count, renumbered 0..n-1.
	LiveTrees int `json:"live_trees"`
	// TookNS is the server-side merge-and-publish time in nanoseconds.
	TookNS int64 `json:"took_ns"`
}

// ReloadResponse is the /reload response body.
type ReloadResponse struct {
	// Reloaded reports whether the on-disk manifest differed and a new
	// segment set was swapped in.
	Reloaded bool `json:"reloaded"`
	// Segments is the live segment count after the reload.
	Segments int `json:"segments"`
	// Generation is the manifest publish counter after the reload.
	Generation int `json:"generation"`
}

// lifecycle serves a node's live-update endpoints over its index.
type lifecycle struct {
	*Server
	ix *si.Index
}

// registerLifecycle mounts /append, /delete, /compact and /reload.
func registerLifecycle(s *Server, ix *si.Index) {
	l := lifecycle{s, ix}
	s.route("/append", http.MethodPost, l.mutation(l.handleAppend))
	s.route("/delete", http.MethodPost, l.mutation(l.handleDelete))
	s.route("/compact", http.MethodPost, l.mutation(l.handleCompact))
	s.route("/reload", http.MethodPost, l.handleReload)
}

// mutation answers 403 in place of h when Config.MaxAppendBody is
// negative, the switch that disables the whole mutation surface.
func (l lifecycle) mutation(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if l.cfg.MaxAppendBody < 0 {
			l.fail(w, r, http.StatusForbidden, "index mutation is disabled on this server")
			return
		}
		h(w, r)
	}
}

// handleAppend serves POST /append: the body is a bracketed corpus
// (one tree per line, as sibuild reads), indexed into a fresh segment
// and published atomically — the next /search sees the new trees.
// Running queries are unaffected; they finish on the segment set they
// pinned.
func (l lifecycle) handleAppend(w http.ResponseWriter, r *http.Request) {
	trees, err := si.ReadTrees(http.MaxBytesReader(w, r.Body, l.cfg.MaxAppendBody))
	if err != nil {
		l.fail(w, r, http.StatusBadRequest, "bad append body: "+err.Error())
		return
	}
	if len(trees) == 0 {
		l.fail(w, r, http.StatusBadRequest, "empty append: need one bracketed tree per line")
		return
	}
	start := time.Now()
	if _, err := l.ix.Append(r.Context(), trees); err != nil {
		l.fail(w, r, errStatus(r.Context(), err), err.Error())
		return
	}
	l.writeJSON(w, http.StatusOK, AppendResponse{
		Trees:      len(trees),
		Segments:   l.ix.Segments(),
		Generation: l.ix.Generation(),
		TookNS:     time.Since(start).Nanoseconds(),
	})
}

// handleDelete serves POST /delete: the listed trees are tombstoned in
// the manifest and the serving set swaps atomically, so they stop
// matching on the very next query while searches already running
// finish on the snapshot they pinned. Segments are immutable, so the
// trees keep occupying disk until /compact reclaims them. Out-of-range
// tids fail the whole request with 400 before anything is published.
func (l lifecycle) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(&req); err != nil {
		l.fail(w, r, http.StatusBadRequest, "bad delete body: "+err.Error())
		return
	}
	if len(req.TIDs) == 0 {
		l.fail(w, r, http.StatusBadRequest, "empty delete: need tids")
		return
	}
	n := l.ix.NumTrees()
	for _, tid := range req.TIDs {
		if tid < 0 || tid >= n {
			l.fail(w, r, http.StatusBadRequest, fmt.Sprintf("tid %d out of range [0, %d)", tid, n))
			return
		}
	}
	start := time.Now()
	deleted, err := l.ix.Delete(r.Context(), req.TIDs...)
	if err != nil {
		l.fail(w, r, errStatus(r.Context(), err), err.Error())
		return
	}
	st := l.ix.Stats()
	l.writeJSON(w, http.StatusOK, DeleteResponse{
		Deleted:         deleted,
		LiveTrees:       st.LiveTrees,
		TombstonedTrees: st.TombstonedTrees,
		Generation:      l.ix.Generation(),
		TookNS:          time.Since(start).Nanoseconds(),
	})
}

// handleCompact serves POST /compact: the surviving trees of all
// segments are merged into one fresh segment published atomically,
// clearing every tombstone; replaced segment directories are removed
// once their last in-flight query drains. Surviving trees are
// renumbered to contiguous tids, so clients holding tids across a
// compaction must re-resolve them. A no-op (single segment, no
// tombstones) answers 200 with compacted=false.
func (l lifecycle) handleCompact(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	compacted, err := l.ix.Compact(r.Context())
	if err != nil {
		l.fail(w, r, errStatus(r.Context(), err), err.Error())
		return
	}
	l.writeJSON(w, http.StatusOK, CompactResponse{
		Compacted:  compacted,
		Segments:   l.ix.Segments(),
		Generation: l.ix.Generation(),
		LiveTrees:  l.ix.Stats().LiveTrees,
		TookNS:     time.Since(start).Nanoseconds(),
	})
}

// handleReload serves POST /reload: re-read the index manifest and
// pick up segments published by another process (e.g. sibuild -append
// against the served directory) with zero downtime.
func (l lifecycle) handleReload(w http.ResponseWriter, r *http.Request) {
	reloaded, err := l.ix.Reload()
	if err != nil {
		l.fail(w, r, errStatus(r.Context(), err), err.Error())
		return
	}
	l.writeJSON(w, http.StatusOK, ReloadResponse{
		Reloaded:   reloaded,
		Segments:   l.ix.Segments(),
		Generation: l.ix.Generation(),
	})
}
