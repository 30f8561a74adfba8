package predsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/predsvc/cluster"
	"repro/internal/predsvc/store"
)

// RebalanceConfig drives one cluster resize (see Rebalance).
type RebalanceConfig struct {
	// From is the current membership (node base URLs) — every node that
	// may hold sessions now. Required.
	From []string
	// To is the new membership the cluster is resizing to. Required.
	To []string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// RebalanceReport summarizes a Rebalance run.
type RebalanceReport struct {
	// Sources is how many nodes were asked to hand sessions off.
	Sources int
	// Moved is how many sessions the final successful passes exported.
	Moved int
	// Imported / Skipped split Moved by what the destinations did:
	// installed fresh, or skipped as already present with at least as
	// many observations (the signature of a retried pass).
	Imported int
	Skipped  int
	// Dropped is how many sessions the sources deleted after handoff.
	Dropped int
	// Retries counts failed passes that were retried — non-zero when a
	// mid-transfer kill (injected or real) was ridden out.
	Retries int
}

func (r RebalanceReport) String() string {
	return fmt.Sprintf("rebalance: %d sources, %d sessions moved (%d imported, %d skipped), %d dropped, %d retries",
		r.Sources, r.Moved, r.Imported, r.Skipped, r.Dropped, r.Retries)
}

// rebalanceAttempts caps how many times one source node's handoff pass
// (export → import → drop) is tried before Rebalance fails. Retries are
// idempotent: import is last-writer-wins, drop runs only after every
// import succeeded.
const rebalanceAttempts = 5

// Rebalance drives an N→M membership change: for every node of the old
// membership it exports the sessions the new rendezvous map assigns
// elsewhere, imports each one into its new owner, and only then tells
// the source to drop them. One source's pass is atomic-by-retry rather
// than transactional: a kill anywhere in the middle leaves the sessions
// still owned by the source, and the retried pass re-exports them —
// destinations skip the already-applied records via last-writer-wins,
// so a retry never double-counts and always converges. Nodes absent
// from To export everything they hold (leaving the cluster); nodes
// absent From import only (joining).
func Rebalance(ctx context.Context, cfg RebalanceConfig) (*RebalanceReport, error) {
	if len(cfg.From) == 0 || len(cfg.To) == 0 {
		return nil, errors.New("predsvc: rebalance needs both the old (From) and new (To) membership")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	newMap := cluster.New(cfg.To...)
	rep := &RebalanceReport{Sources: len(cfg.From)}
	for _, src := range cfg.From {
		var lastErr error
		ok := false
		for attempt := 1; attempt <= rebalanceAttempts; attempt++ {
			if attempt > 1 {
				rep.Retries++
				logf("source %s: attempt %d/%d after: %v", src, attempt, rebalanceAttempts, lastErr)
				select {
				case <-ctx.Done():
					return rep, ctx.Err()
				case <-time.After(time.Duration(attempt) * 100 * time.Millisecond):
				}
			}
			moved, imported, skipped, dropped, err := rebalanceOne(ctx, http.DefaultClient, src, cfg.To, newMap, logf)
			if err != nil {
				lastErr = err
				continue
			}
			rep.Moved += moved
			rep.Imported += imported
			rep.Skipped += skipped
			rep.Dropped += dropped
			ok = true
			break
		}
		if !ok {
			return rep, fmt.Errorf("predsvc: rebalance of %s failed after %d attempts: %w", src, rebalanceAttempts, lastErr)
		}
	}
	return rep, nil
}

// rebalanceOne runs one source's full handoff pass: export, verify the
// stream, import per destination, drop. Any failure aborts the pass
// with nothing destroyed — the caller retries the whole pass.
func rebalanceOne(ctx context.Context, hc *http.Client, src string, to []string, newMap *cluster.Map, logf func(string, ...any)) (moved, imported, skipped, dropped int, err error) {
	view, _ := json.Marshal(ClusterViewRequest{Nodes: to, Self: src})
	bodies, moved, err := exportSessions(ctx, hc, src, view, newMap)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("export from %s: %w", src, err)
	}
	logf("source %s: exported %d sessions", src, moved)
	// Import destinations in sorted order so a retried pass replays
	// identically.
	dsts := make([]string, 0, len(bodies))
	for d := range bodies {
		dsts = append(dsts, d)
	}
	sort.Strings(dsts)
	for _, dst := range dsts {
		imp, skp, ierr := importSessions(ctx, hc, dst, bodies[dst])
		if ierr != nil {
			return 0, 0, 0, 0, fmt.Errorf("import into %s: %w", dst, ierr)
		}
		logf("source %s: imported %d (+%d already present) into %s", src, imp, skp, dst)
		imported += imp
		skipped += skp
	}
	// Every destination confirmed: only now is deleting on the source
	// safe. Drop is idempotent, so a retry after a failed drop is fine.
	var dres SessionsDropResponse
	if err := handoffPostJSON(ctx, hc, src+"/v1/sessions/drop", view, &dres); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("drop on %s: %w", src, err)
	}
	logf("source %s: dropped %d sessions, %d remain", src, dres.Dropped, dres.Remaining)
	return moved, imported, skipped, dres.Dropped, nil
}

// exportSessions POSTs /v1/sessions/export and splits the verified
// stream into one import stream per new owner, copying records verbatim.
// A stream cut short of its trailer — a mid-transfer kill — is an error;
// nothing from it is trusted.
func exportSessions(ctx context.Context, hc *http.Client, src string, view []byte, newMap *cluster.Map) (bodies map[string][]byte, moved int, err error) {
	body, err := handoffPost(ctx, hc, src+"/v1/sessions/export", view)
	if err != nil {
		return nil, 0, err
	}
	defer body.Close()
	sr, err := store.NewStreamReader(body, sessionsFormat)
	if err != nil {
		return nil, 0, err
	}
	type out struct {
		buf bytes.Buffer
		sw  *store.StreamWriter
	}
	outs := make(map[string]*out)
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		dst := newMap.Node(rec.Path())
		o := outs[dst]
		if o == nil {
			o = &out{}
			o.sw = store.NewStreamWriter(&o.buf, sessionsFormat)
			outs[dst] = o
		}
		o.sw.Write(rec)
		moved++
	}
	bodies = make(map[string][]byte, len(outs))
	for dst, o := range outs {
		o.sw.Close()
		bodies[dst] = o.buf.Bytes()
	}
	return bodies, moved, nil
}

// importSessions POSTs one record stream to dst's /v1/sessions/import.
func importSessions(ctx context.Context, hc *http.Client, dst string, stream []byte) (imported, skipped int, err error) {
	var resp SessionsImportResponse
	if err := handoffPostJSON(ctx, hc, dst+"/v1/sessions/import", stream, &resp); err != nil {
		return 0, 0, err
	}
	return resp.Imported, resp.Skipped, nil
}

// handoffPostJSON POSTs body and decodes the 200 response into out.
func handoffPostJSON(ctx context.Context, hc *http.Client, url string, body []byte, out any) error {
	resp, err := handoffPost(ctx, hc, url, body)
	if err != nil {
		return err
	}
	defer resp.Close()
	return json.NewDecoder(resp).Decode(out)
}

// handoffPost POSTs body and returns the 200 response's body; any other
// status is an error carrying the server's message.
func handoffPost(ctx context.Context, hc *http.Client, url string, body []byte) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var apiErr apiError
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return nil, fmt.Errorf("status %s: %s", resp.Status, apiErr.Error)
		}
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return resp.Body, nil
}
