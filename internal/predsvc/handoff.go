package predsvc

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/predsvc/cluster"
)

// Shard handoff moves per-path predictor sessions between nodes when the
// cluster's membership changes, over two streaming endpoints plus a
// cleanup step:
//
//	POST /v1/sessions/export  {"nodes":[...], "self":"..."}  → NDJSON stream of HandoffRecords + trailer
//	POST /v1/sessions/import  NDJSON stream of HandoffRecords + trailer
//	POST /v1/sessions/drop    {"nodes":[...], "self":"..."}  → delete paths the new map assigns elsewhere
//
// Export answers "give me every path I no longer own under this cluster
// map": the caller supplies the NEW membership and the exporting node's
// own URL, and every session whose rendezvous owner is not self streams
// out as a checksummed record. A node absent from the new membership owns
// nothing and exports everything — how a node leaves the cluster.
//
// Import is last-writer-wins on observation count and never merges: a
// record lands only when it has strictly more observations than the
// resident session, which makes a retried import (after a mid-transfer
// kill, a partial apply, or a crashed orchestrator) idempotent — already
// applied records skip, missing ones land, nothing double-counts.
//
// Drop is the only destructive step and is issued by the orchestrator
// (cmd/predctl rebalance) strictly after every import for the exported
// paths succeeded, so a kill anywhere between export and drop loses
// nothing: the paths still live on the source and the next attempt
// re-exports them.

// HandoffRecord is one line of the session-handoff NDJSON stream: either
// a session record (Path/Observations/State/Sum) or the final trailer
// (Trailer/Count/Sum). State is the session's PathSnapshot JSON — the
// record format the registry snapshot and the spill log use — and Sum its
// sha256. The trailer's Sum chains the record checksums in
// stream order, so a truncated or reordered stream is detected before
// the importer trusts it.
type HandoffRecord struct {
	Path         string          `json:"path,omitempty"`
	Observations uint64          `json:"observations,omitempty"`
	State        json.RawMessage `json:"state,omitempty"`
	Sum          string          `json:"sum,omitempty"`

	Trailer bool `json:"trailer,omitempty"`
	Count   int  `json:"count,omitempty"`
}

// ClusterViewRequest carries a cluster membership view: the node URLs
// the rendezvous map is built from, plus the receiving node's own URL
// (as the caller addresses it — ownership is computed on these exact
// strings). Self need not appear in Nodes: a node missing from the new
// membership owns no paths under it.
type ClusterViewRequest struct {
	Nodes []string `json:"nodes"`
	Self  string   `json:"self"`
}

// SessionsImportResponse reports how an import stream fared.
type SessionsImportResponse struct {
	// Imported counts records applied (installed or replaced).
	Imported int `json:"imported"`
	// Skipped counts records dropped by last-writer-wins: the resident
	// session already had at least as many observations.
	Skipped int `json:"skipped"`
}

// SessionsDropResponse reports what /v1/sessions/drop removed.
type SessionsDropResponse struct {
	Dropped   int `json:"dropped"`
	Remaining int `json:"remaining"`
}

// maxHandoffBytes bounds an import stream; whole-registry transfers run
// far past the 1 MiB request cap of the point endpoints.
const maxHandoffBytes = 1 << 30

// handoffFlushEvery is how many export records are written between
// explicit flushes, bounding how much of the stream a mid-transfer kill
// can hold back in buffers.
const handoffFlushEvery = 64

func decodeClusterView(w http.ResponseWriter, req *http.Request) (*cluster.Map, string, bool) {
	var body ClusterViewRequest
	if err := decodeBody(w, req, &body); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, "", false
	}
	if len(body.Nodes) == 0 {
		writeError(w, http.StatusBadRequest, "missing nodes")
		return nil, "", false
	}
	if body.Self == "" {
		writeError(w, http.StatusBadRequest, "missing self")
		return nil, "", false
	}
	return cluster.New(body.Nodes...), body.Self, true
}

// handleSessionsExport streams every session the supplied cluster map
// assigns away from self, as checksummed NDJSON records closed by a
// chained-checksum trailer. The stream is produced in sorted path order,
// so two exports against the same registry state are byte-identical. An
// injected fault at SiteHandoffExport aborts the stream mid-way without
// a trailer — the importer must treat such a stream as void.
func (r *Server) handleSessionsExport(w http.ResponseWriter, req *http.Request) int {
	m, self, ok := decodeClusterView(w, req)
	if !ok {
		return http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	chain := sha256.New()
	count := 0
	for _, path := range r.reg.Paths() {
		if m.Node(path) == self {
			continue // still ours under the new map
		}
		if err := r.cfg.Faults.Check(SiteHandoffExport); err != nil {
			// Mid-transfer kill: stop without a trailer. The client sees a
			// truncated stream and retries; nothing was deleted here.
			bw.Flush()
			return http.StatusOK
		}
		sess, ok := r.reg.Peek(path)
		if !ok {
			continue // concurrently deleted
		}
		state, err := json.Marshal(sess.snapshot())
		if err != nil {
			continue
		}
		sum := sha256.Sum256(state)
		chain.Write(sum[:])
		rec, err := json.Marshal(HandoffRecord{
			Path:         path,
			Observations: sess.Observations(),
			State:        state,
			Sum:          hex.EncodeToString(sum[:]),
		})
		if err != nil {
			continue
		}
		bw.Write(rec)
		bw.WriteByte('\n')
		count++
		r.metrics.handoffExported.Add(1)
		if count%handoffFlushEvery == 0 {
			bw.Flush()
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
	}
	trailer, _ := json.Marshal(HandoffRecord{
		Trailer: true,
		Count:   count,
		Sum:     hex.EncodeToString(chain.Sum(nil)),
	})
	bw.Write(trailer)
	bw.WriteByte('\n')
	bw.Flush()
	return http.StatusOK
}

// handleSessionsImport applies a handoff stream. Records are verified
// (per-record sha256, then the trailer's chained sum and count) and
// applied last-writer-wins: a record installs only when it carries
// strictly more observations than the resident session. Failures may
// leave a prefix of the stream applied — by LWW that is safe, and the
// orchestrator simply replays the stream. An injected fault at
// SiteHandoffImport fails the request mid-batch to exercise exactly that
// path.
func (r *Server) handleSessionsImport(w http.ResponseWriter, req *http.Request) int {
	br := bufio.NewReader(http.MaxBytesReader(w, req.Body, maxHandoffBytes))
	var resp SessionsImportResponse
	chain := sha256.New()
	seen := 0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) == 0 && err != nil {
			if errors.Is(err, io.EOF) {
				return writeError(w, http.StatusBadRequest, "truncated handoff stream: no trailer after %d records", seen)
			}
			return writeError(w, http.StatusBadRequest, "reading handoff stream: %v", err)
		}
		var rec HandoffRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return writeError(w, http.StatusBadRequest, "bad handoff record %d: %v", seen, err)
		}
		if rec.Trailer {
			if rec.Count != seen {
				return writeError(w, http.StatusBadRequest, "handoff trailer count %d, stream carried %d records", rec.Count, seen)
			}
			if got := hex.EncodeToString(chain.Sum(nil)); got != rec.Sum {
				return writeError(w, http.StatusBadRequest, "handoff stream checksum mismatch")
			}
			return writeJSON(w, http.StatusOK, resp)
		}
		if err := r.cfg.Faults.Check(SiteHandoffImport); err != nil {
			// Mid-batch failure with a prefix applied: safe, the retry's
			// already-applied records skip via last-writer-wins.
			return writeError(w, http.StatusInternalServerError, "injected fault: %v", err)
		}
		sum := sha256.Sum256(rec.State)
		if hex.EncodeToString(sum[:]) != rec.Sum {
			return writeError(w, http.StatusBadRequest, "handoff record %d (%s): state checksum mismatch", seen, rec.Path)
		}
		chain.Write(sum[:])
		var ps PathSnapshot
		if err := json.Unmarshal(rec.State, &ps); err != nil {
			return writeError(w, http.StatusBadRequest, "handoff record %d (%s): bad state: %v", seen, rec.Path, err)
		}
		if ps.Path != rec.Path {
			return writeError(w, http.StatusBadRequest, "handoff record %d: path %q carries state for %q", seen, rec.Path, ps.Path)
		}
		// The state is decoded before last-writer-wins looks at it, so a
		// malformed record fails the stream even when it would be skipped.
		ens, err := ps.ensemble(r.reg.cfg.Ensemble)
		if err != nil {
			return writeError(w, http.StatusBadRequest, "handoff record %d (%s): bad state: %v", seen, rec.Path, err)
		}
		seen++ // every message above names the record by its zero-based index
		if existing, ok := r.reg.Peek(rec.Path); ok && existing.Observations() >= rec.Observations {
			resp.Skipped++
			r.metrics.handoffSkipped.Add(1)
			continue
		}
		r.reg.install(rec.Path, ens)
		resp.Imported++
		r.metrics.handoffImported.Add(1)
	}
}

// handleSessionsDrop deletes every session the supplied cluster map
// assigns away from self — the final step of a handoff, issued by the
// orchestrator only after the new owners confirmed their imports.
// Idempotent: a repeat finds nothing left to drop.
func (r *Server) handleSessionsDrop(w http.ResponseWriter, req *http.Request) int {
	m, self, ok := decodeClusterView(w, req)
	if !ok {
		return http.StatusBadRequest
	}
	var resp SessionsDropResponse
	for _, path := range r.reg.Paths() {
		if m.Node(path) == self {
			continue
		}
		if r.reg.Delete(path) {
			resp.Dropped++
			r.metrics.handoffDropped.Add(1)
		}
	}
	resp.Remaining = r.reg.Len()
	return writeJSON(w, http.StatusOK, resp)
}
