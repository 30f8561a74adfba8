package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The benchmark's contract — workloads, metric names, units, directions,
// regression bounds and the run length — is defined once, in BENCHMARK.json
// at the repository root. The harness reads it at start-up: a run must fill
// exactly the metrics the file names, so a name that exists only there (or
// only here) fails the run as "metrics not produced" (or is never printed).

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// benchSpec is BENCHMARK.json as far as the harness needs it.
type benchSpec struct {
	// RunSeconds is the `--seconds` the driver passes: how long one run's
	// timed section lasts. Campaign digests in expected/ are pinned at it.
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	// EndToEnd: what running the system costs its operator, reported by
	// every workload from the REAL binaries. Wall-clock throughput and
	// latency do not repeat within a tenth on a shared 2-vCPU box, so these
	// are process CPU time, exact counts and peak memory per unit of work.
	EndToEnd []metricSpec `json:"end_to_end"`
	// PerLayer: reported by the traced pass (layer = module name). README.md
	// says which end-to-end metric each should move, on which workload.
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds, workloads, end_to_end and per_layer are all required")
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
