package campaign

import (
	"time"
)

// Summary totals a finished (or aborted) campaign.
type Summary struct {
	Jobs      int           // jobs submitted
	Completed int           // jobs that produced a result
	Failed    int           // jobs that started and errored
	Skipped   int           // jobs never started (campaign cancelled)
	Events    uint64        // total simulation events processed
	VirtualS  float64       // total virtual seconds simulated
	Wall      time.Duration // wall-clock duration of the campaign
}

// Observer receives campaign lifecycle and progress callbacks. Methods
// may be called concurrently from worker goroutines; implementations must
// serialize internally. All callbacks must be non-blocking-ish: they run
// on the measurement hot path.
type Observer interface {
	// CampaignStarted fires once, before any job runs. totalEpochs is
	// the sum of the jobs' expected epochs (0 when unknown).
	CampaignStarted(totalJobs, totalEpochs int)
	// TraceStarted fires when a job begins. attempt is always 1: the
	// runner runs each job once.
	TraceStarted(job Job, attempt int)
	// EpochDone fires after each measurement epoch, with the engine's
	// virtual clock and the events processed by that epoch alone.
	EpochDone(job Job, epoch int, virtualTime float64, events uint64)
	// TraceFinished fires when a job ends; err is nil on success, a
	// *PanicError for a recovered fault, or a context error. attempt is
	// always 1.
	TraceFinished(job Job, err error, attempt int, wall time.Duration)
	// CampaignFinished fires once after all workers drain.
	CampaignFinished(sum Summary)
}

// NopObserver ignores every callback.
type NopObserver struct{}

func (NopObserver) CampaignStarted(int, int)                     {}
func (NopObserver) TraceStarted(Job, int)                        {}
func (NopObserver) EpochDone(Job, int, float64, uint64)          {}
func (NopObserver) TraceFinished(Job, error, int, time.Duration) {}
func (NopObserver) CampaignFinished(Summary)                     {}

// MultiObserver fans callbacks out to several observers in order.
type MultiObserver []Observer

func (m MultiObserver) CampaignStarted(jobs, epochs int) {
	for _, o := range m {
		o.CampaignStarted(jobs, epochs)
	}
}

func (m MultiObserver) TraceStarted(job Job, attempt int) {
	for _, o := range m {
		o.TraceStarted(job, attempt)
	}
}

func (m MultiObserver) EpochDone(job Job, epoch int, vt float64, events uint64) {
	for _, o := range m {
		o.EpochDone(job, epoch, vt, events)
	}
}

func (m MultiObserver) TraceFinished(job Job, err error, attempt int, wall time.Duration) {
	for _, o := range m {
		o.TraceFinished(job, err, attempt, wall)
	}
}

func (m MultiObserver) CampaignFinished(sum Summary) {
	for _, o := range m {
		o.CampaignFinished(sum)
	}
}
