package predsvc

import (
	"bufio"
	"io"
	"net/http"

	"repro/internal/predsvc/cluster"
	"repro/internal/predsvc/store"
)

// Shard handoff moves per-path predictor sessions between nodes when the
// cluster's membership changes, over two streaming endpoints plus a
// cleanup step:
//
//	POST /v1/sessions/export  {"nodes":[...], "self":"..."}  → record stream of session states
//	POST /v1/sessions/import  record stream of session states
//	POST /v1/sessions/drop    {"nodes":[...], "self":"..."}  → delete paths the new map assigns elsewhere
//
// The bodies are the store's record stream (store.StreamWriter), the same
// framing as snapshot files: a header naming sessionsFormat, one
// checksummed record per session, and a trailer carrying the record count
// and a chained checksum, so a truncated, reordered or corrupted stream is
// detected before the importer trusts it. Nodes whose sessionsFormat
// versions differ refuse each other's streams with a 400.
//
// Export answers "give me every path I no longer own under this cluster
// map": the caller supplies the NEW membership and the exporting node's
// own URL, and every session whose rendezvous owner is not self streams
// out as a record. A node absent from the new membership owns nothing and
// exports everything — how a node leaves the cluster.
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
// far past the 1 MiB request cap of the point endpoints. Each record is
// bounded separately by store.MaxRecordBytes.
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
// assigns away from self as a record stream, in sorted path order, so two
// exports against the same registry state are byte-identical. Cold
// sessions are copied verbatim from the spill log. An injected fault at
// siteHandoffExport aborts the stream mid-way without a trailer — the
// importer must treat such a stream as void.
func (r *Server) handleSessionsExport(w http.ResponseWriter, req *http.Request) int {
	m, self, ok := decodeClusterView(w, req)
	if !ok {
		return http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	sw := store.NewStreamWriter(bw, sessionsFormat)
	count := 0
	for _, path := range r.reg.Paths() {
		if m.Node(path) == self {
			continue // still ours under the new map
		}
		if err := r.cfg.fault(siteHandoffExport); err != nil {
			// Mid-transfer kill: stop without a trailer. The client sees a
			// truncated stream and retries; nothing was deleted here.
			bw.Flush()
			return http.StatusOK
		}
		rec, ok := r.reg.st.Record(path)
		if !ok {
			continue // concurrently deleted
		}
		if sw.Write(rec) != nil {
			return http.StatusOK // the client went away
		}
		count++
		r.metrics.handoffExported.Add(1)
		if count%handoffFlushEvery == 0 {
			bw.Flush()
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
	}
	sw.Close()
	bw.Flush()
	return http.StatusOK
}

// handleSessionsImport applies a handoff stream one bounded record at a
// time. Records are verified (per-record checksum, then the trailer's
// count and chained checksum) and applied last-writer-wins: a record
// installs only when it carries strictly more observations than the
// resident session. Failures may leave a prefix of the stream applied — by
// LWW that is safe, and the orchestrator simply replays the stream. An
// injected fault at siteHandoffImport fails the request mid-batch to
// exercise exactly that path.
func (r *Server) handleSessionsImport(w http.ResponseWriter, req *http.Request) int {
	sr, err := store.NewStreamReader(http.MaxBytesReader(w, req.Body, maxHandoffBytes), sessionsFormat)
	if err != nil {
		return writeError(w, http.StatusBadRequest, "bad handoff stream: %v", err)
	}
	var resp SessionsImportResponse
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return writeJSON(w, http.StatusOK, resp)
		}
		if err != nil {
			return writeError(w, http.StatusBadRequest, "bad handoff stream: %v", err)
		}
		if err := r.cfg.fault(siteHandoffImport); err != nil {
			// Mid-batch failure with a prefix applied: safe, the retry's
			// already-applied records skip via last-writer-wins.
			return writeError(w, http.StatusInternalServerError, "injected fault: %v", err)
		}
		// The state is decoded before last-writer-wins looks at it, so a
		// malformed record fails the stream even when it would be skipped.
		path, index := rec.Path(), resp.Imported+resp.Skipped
		s, err := r.reg.decode(path, rec.Data())
		if err != nil {
			return writeError(w, http.StatusBadRequest, "handoff record %d (%s): bad state: %v", index, path, err)
		}
		if existing, ok := r.reg.Peek(path); ok && existing.Observations() >= s.ens.Observations() {
			resp.Skipped++
			r.metrics.handoffSkipped.Add(1)
			continue
		}
		r.reg.install(path, s.ens)
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
