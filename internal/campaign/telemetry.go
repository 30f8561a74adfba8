package campaign

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Telemetry is an Observer that feeds campaign progress into the
// observability layer: one root span per campaign, one child span per
// job (carrying its simulation-event count), and the campaign_*
// metric family. Attach it with MultiObserver alongside a progress
// observer; like every Observer its callbacks may fire concurrently and
// it serializes internally.
//
// Telemetry built on a nil *obs.Obs degrades to no-ops, so call sites
// can wire it unconditionally.
type Telemetry struct {
	tr *obs.Tracer

	jobsStarted   *obs.Counter
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	epochs        *obs.Counter
	events        *obs.Counter
	virtualSecs   *obs.Gauge
	jobSeconds    *obs.Histogram

	mu       sync.Mutex
	campaign *obs.Span
	jobs     map[int]*obs.Span // job index → open job span
}

// NewTelemetry wires a telemetry observer into o's tracer and registry.
func NewTelemetry(o *obs.Obs) *Telemetry {
	m := o.M()
	return &Telemetry{
		tr:            o.T(),
		jobsStarted:   m.Counter("campaign_jobs_started_total", "jobs started"),
		jobsCompleted: m.Counter("campaign_jobs_completed_total", "jobs that finished without error"),
		jobsFailed:    m.Counter("campaign_jobs_failed_total", "jobs that ended in an error"),
		epochs:        m.Counter("campaign_epochs_total", "measurement epochs simulated"),
		events:        m.Counter("campaign_events_total", "simulation events processed, summed over epochs"),
		virtualSecs:   m.Gauge("campaign_virtual_seconds", "virtual time reached, summed over jobs"),
		jobSeconds: m.Histogram("campaign_job_seconds", "wall-clock duration of jobs",
			[]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}),
	}
}

// JobSpan returns the span of the job while it runs, so
// the job body can parent its own finer-grained spans (epochs, phases)
// under the campaign tree. It returns nil when the job is not running or
// telemetry is off; callers need no nil check because child spans of a
// nil span are no-ops. The Observer contract guarantees TraceStarted ran
// before the job body, so the slot is populated by the time a job asks.
func (t *Telemetry) JobSpan(index int) *obs.Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[index]
}

// CampaignStarted implements Observer.
func (t *Telemetry) CampaignStarted(totalJobs, totalEpochs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.campaign = t.tr.Start("campaign")
	t.jobs = make(map[int]*obs.Span, totalJobs)
}

// TraceStarted implements Observer.
func (t *Telemetry) TraceStarted(job Job, _ int) {
	t.jobsStarted.Inc()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs == nil {
		t.jobs = make(map[int]*obs.Span)
	}
	t.jobs[job.Index] = t.campaign.Child("trace " + job.String())
}

// EpochDone implements Observer.
func (t *Telemetry) EpochDone(job Job, epoch int, virtualTime float64, events uint64) {
	t.epochs.Inc()
	t.events.Add(events)
	t.mu.Lock()
	sp := t.jobs[job.Index]
	t.mu.Unlock()
	sp.AddCount(int64(events))
}

// TraceFinished implements Observer.
func (t *Telemetry) TraceFinished(job Job, err error, _ int, wall time.Duration) {
	if err == nil {
		t.jobsCompleted.Inc()
	} else {
		t.jobsFailed.Inc()
	}
	t.jobSeconds.Observe(wall.Seconds())
	t.mu.Lock()
	sp := t.jobs[job.Index]
	delete(t.jobs, job.Index)
	t.mu.Unlock()
	sp.End()
}

// CampaignFinished implements Observer.
func (t *Telemetry) CampaignFinished(sum Summary) {
	t.virtualSecs.Add(sum.VirtualS)
	t.mu.Lock()
	sp := t.campaign
	t.campaign = nil
	t.mu.Unlock()
	sp.AddCount(int64(sum.Events))
	sp.End()
}
