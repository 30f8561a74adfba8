package testbed

// EpochRecord holds every quantity one measurement epoch produces, using
// the paper's Table 1 naming in the comments.
type EpochRecord struct {
	Path      string  `json:"path"`
	Class     string  `json:"class"`
	Trace     int     `json:"trace"`
	Epoch     int     `json:"epoch"`
	StartTime float64 `json:"start_time"` // virtual seconds from trace start

	// Pre-flow measurements.
	AvailBw     float64 `json:"avail_bw"`      // Â: pathload estimate, bps
	AvailBwTrue float64 `json:"avail_bw_true"` // ground-truth avail-bw, bps
	PreRTT      float64 `json:"pre_rtt"`       // T̂: ping RTT before the flow, s
	PreLoss     float64 `json:"pre_loss"`      // p̂: ping loss rate before the flow

	// Measurements during the target flow (periodic probing).
	DurRTT  float64 `json:"dur_rtt"`  // T̃
	DurLoss float64 `json:"dur_loss"` // p̃

	// The target (W = 1 MB) transfer.
	Throughput    float64 `json:"throughput"`      // R: bits per second
	FlowRTT       float64 `json:"flow_rtt"`        // T: mean RTT the flow saw
	FlowLoss      float64 `json:"flow_loss"`       // p: loss rate the flow saw
	FlowEventRate float64 `json:"flow_event_rate"` // p′: congestion events/segment
	Retransmits   int64   `json:"retransmits"`
	Timeouts      int64   `json:"timeouts"`
	LossEvents    int64   `json:"loss_events"`
	SegmentsSent  int64   `json:"segments_sent"`

	// Scenario-matrix identity and CC-agnostic sender state (PR 10).
	// Empty/zero on paper-default campaigns so legacy datasets and the
	// committed seeds keep their byte layout.
	CC               string  `json:"cc,omitempty"`                // congestion control of the target transfer
	Link             string  `json:"link,omitempty"`              // bottleneck link regime (LinkType)
	PacingRate       float64 `json:"pacing_rate,omitempty"`       // window/SRTT at transfer end, bps
	DeliveryRate     float64 `json:"delivery_rate,omitempty"`     // measured delivery rate at transfer end, bps
	RecoveryEpisodes int64   `json:"recovery_episodes,omitempty"` // fast-recovery episodes during the transfer

	// Prefix throughputs for the requested checkpoint durations (D2).
	Checkpoints []float64 `json:"checkpoints,omitempty"`

	// The window-limited (W = 20 KB) companion transfer; zero if disabled.
	SmallThroughput    float64 `json:"small_throughput,omitempty"`
	SmallFlowLoss      float64 `json:"small_flow_loss,omitempty"`
	SmallWindowBytes   int     `json:"small_window_bytes,omitempty"`
	SmallWindowLimited bool    `json:"small_window_limited,omitempty"`
}

// Trace is one contiguous measurement session on one path.
type Trace struct {
	Path    string        `json:"path"`
	Class   string        `json:"class"`
	Index   int           `json:"index"`
	Records []EpochRecord `json:"records"`
}

// Throughputs returns the trace's large-window throughput series (bps).
func (t Trace) Throughputs() []float64 {
	out := make([]float64, len(t.Records))
	for i, r := range t.Records {
		out[i] = r.Throughput
	}
	return out
}

// SmallThroughputs returns the window-limited throughput series (bps).
func (t Trace) SmallThroughputs() []float64 {
	out := make([]float64, len(t.Records))
	for i, r := range t.Records {
		out[i] = r.SmallThroughput
	}
	return out
}

// Dataset is a full measurement campaign: all traces over all paths.
type Dataset struct {
	Label  string  `json:"label"`
	Traces []Trace `json:"traces"`
}

// PathNames returns the distinct path names in catalog order of first
// appearance.
func (ds *Dataset) PathNames() []string {
	seen := make(map[string]bool)
	var names []string
	for _, t := range ds.Traces {
		if !seen[t.Path] {
			seen[t.Path] = true
			names = append(names, t.Path)
		}
	}
	return names
}

// TracesForPath returns all traces collected on the named path.
func (ds *Dataset) TracesForPath(path string) []Trace {
	var out []Trace
	for _, t := range ds.Traces {
		if t.Path == path {
			out = append(out, t)
		}
	}
	return out
}

// AllRecords flattens every epoch record in the dataset.
func (ds *Dataset) AllRecords() []EpochRecord {
	var out []EpochRecord
	for _, t := range ds.Traces {
		out = append(out, t.Records...)
	}
	return out
}

// Epochs returns the total number of epochs in the dataset.
func (ds *Dataset) Epochs() int {
	n := 0
	for _, t := range ds.Traces {
		n += len(t.Records)
	}
	return n
}
