package predsvc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/predict"
)

// FBInputsSnapshot is the serialized form of the latest a-priori
// measurements installed on a path.
type FBInputsSnapshot struct {
	RTTSeconds float64 `json:"rtt_s"`
	LossRate   float64 `json:"loss_rate"`
	AvailBwBps float64 `json:"avail_bw_bps"`
}

// PathSnapshot is one path's state, the one record format of the spill
// log, registry snapshots and shard handoff: the lifetime observation
// count, the latest FB measurements and their age, and every family's
// error window and live predictor state (predict.Ensemble.State).
// Restoring installs that state into a fresh ensemble — a copy, exact at
// any history length; no observation is replayed.
type PathSnapshot struct {
	Path         string            `json:"path"`
	Observations uint64            `json:"observations"`
	FBInputs     *FBInputsSnapshot `json:"fb_inputs,omitempty"`
	// FBAge is how many observations the path had absorbed since the
	// FBInputs measurements were installed — preserved so staleness
	// flagging survives a restart.
	FBAge uint64 `json:"fb_age,omitempty"`

	Families []predict.FamilySnapshot `json:"families,omitempty"`
	// CovIn/CovTotal carry the interval-coverage calibration counters.
	CovIn    uint64 `json:"cov_in,omitempty"`
	CovTotal uint64 `json:"cov_total,omitempty"`
}

// Snapshot is the serialized registry: every session's state, shard by
// shard, least recently used first — so restoring in file order into an
// equally-sharded registry reproduces each shard's recency order.
type Snapshot struct {
	Version int            `json:"version"`
	Paths   []PathSnapshot `json:"paths"`
}

// snapshotVersion guards the on-disk format: version 3 carries each
// family's live predictor state in place of version 2's replayed
// observation history. Any other version is rejected.
const snapshotVersion = 3

// Snapshot captures the state of every session.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{Version: snapshotVersion}
	r.forEachLRU(func(s *Session) {
		snap.Paths = append(snap.Paths, s.snapshot())
	})
	return snap
}

// Restore installs snap into the registry (intended for a freshly built
// one) and returns the number of paths restored. Paths beyond capacity
// evict exactly as live traffic would. A record whose state the
// configuration refuses makes the whole snapshot ErrCorruptSnapshot: the
// paths restored before it are deleted again, so a snapshot is never half
// restored.
func (r *Registry) Restore(snap *Snapshot) (int, error) {
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("%w: version %d, want %d", ErrCorruptSnapshot, snap.Version, snapshotVersion)
	}
	for i := range snap.Paths {
		if err := r.Install(snap.Paths[i]); err != nil {
			for _, ps := range snap.Paths[:i] {
				r.Delete(ps.Path)
			}
			return 0, fmt.Errorf("%w: path %q: %v", ErrCorruptSnapshot, snap.Paths[i].Path, err)
		}
	}
	return len(snap.Paths), nil
}

// ErrCorruptSnapshot tags snapshot data that fails its checksum, does not
// parse, carries an unknown version or holds state the configuration
// refuses — anything a crash mid-write, a torn disk, or a foreign file
// could produce. Callers match it with errors.Is to distinguish
// "quarantine and boot empty" from real I/O failures.
var ErrCorruptSnapshot = errors.New("predsvc: corrupt snapshot")

// checksumPrefix separates the JSON body from the integrity trailer.
// json.Marshal output never contains a raw newline, so the last occurrence
// always delimits the trailer.
const checksumPrefix = "\nsha256:"

// EncodeSnapshot serializes snap as JSON followed by a sha256 trailer
// line, so a partially flushed or bit-flipped file is detected at boot
// instead of silently restoring garbage.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	data, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("predsvc: marshal snapshot: %w", err)
	}
	sum := sha256.Sum256(data)
	data = append(data, checksumPrefix...)
	data = append(data, hex.EncodeToString(sum[:])...)
	data = append(data, '\n')
	return data, nil
}

// DecodeSnapshot parses EncodeSnapshot output and verifies its checksum
// trailer. Corruption of any kind — including a missing trailer, which a
// truncated file and a hand-edited one look alike in — returns an error
// wrapping ErrCorruptSnapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	i := bytes.LastIndex(data, []byte(checksumPrefix))
	if i < 0 {
		return nil, fmt.Errorf("%w: missing sha256 trailer", ErrCorruptSnapshot)
	}
	body := data[:i]
	want := strings.TrimSpace(string(data[i+len(checksumPrefix):]))
	sum := sha256.Sum256(body)
	if want != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("%w: sha256 mismatch", ErrCorruptSnapshot)
	}
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptSnapshot, snap.Version, snapshotVersion)
	}
	return &snap, nil
}

// WriteSnapshotFile atomically writes snap to path, checksummed.
func WriteSnapshotFile(path string, snap *Snapshot) error {
	data, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// writeFileAtomic writes data via a temp file in the destination
// directory, fsyncs it, and atomically renames it over path, then syncs
// the directory — so readers never observe a half-written snapshot and a
// crash right after the rename cannot leave the directory entry pointing
// at unflushed data. A failure at any step leaves the previous snapshot
// untouched (the checksum trailer is the last line of defense, not the
// first).
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".predsvc-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
// Filesystems that refuse to sync directories (some network mounts) are
// tolerated: the rename itself was still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// ReadSnapshotFile loads and verifies a snapshot written by
// WriteSnapshotFile. A missing file surfaces as fs.ErrNotExist; corrupt
// contents wrap ErrCorruptSnapshot.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// Quarantine moves a corrupt snapshot aside to the first free
// "<path>.corrupt-<n>" name, preserving the evidence for post-mortems
// while letting the daemon boot with an empty registry.
func Quarantine(path string) (string, error) {
	for n := 1; ; n++ {
		q := fmt.Sprintf("%s.corrupt-%d", path, n)
		if _, err := os.Lstat(q); err == nil {
			continue
		} else if !errors.Is(err, fs.ErrNotExist) {
			return "", err
		}
		if err := os.Rename(path, q); err != nil {
			return "", err
		}
		return q, nil
	}
}
