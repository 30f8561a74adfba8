package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress is a terminal Observer: it repaints a single status line with
// trace counts, epoch completion, epoch and event rates, and an ETA, and
// prints one full line per failed trace. Safe for concurrent use.
type Progress struct {
	W io.Writer

	mu          sync.Mutex
	start       time.Time
	totalJobs   int
	totalEpochs int
	doneJobs    int
	failedJobs  int
	doneEpochs  int
	events      uint64
	lastDraw    time.Time
	lineLen     int
}

// NewProgress returns a terminal progress observer writing to w.
func NewProgress(w io.Writer) *Progress { return &Progress{W: w} }

func (p *Progress) CampaignStarted(jobs, epochs int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.start = time.Now()
	p.totalJobs, p.totalEpochs = jobs, epochs
	p.draw(true)
}

func (p *Progress) TraceStarted(job Job, attempt int) {
	if attempt <= 1 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.println(fmt.Sprintf("retrying trace %s (seed %d, attempt %d)", job, job.Seed, attempt))
}

func (p *Progress) EpochDone(job Job, epoch int, vt float64, events uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doneEpochs++
	p.events += events
	p.draw(false)
}

func (p *Progress) TraceFinished(job Job, err error, attempt int, wall time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		// A retry will follow unless this was the last attempt, but
		// failures are rare enough that reporting each attempt beats
		// guessing the runner's retry budget here.
		p.println(fmt.Sprintf("trace %s failed after %v: %v", job, wall.Round(time.Millisecond), err))
		p.failedJobs++
		return
	}
	p.doneJobs++
	if attempt > 1 {
		// The earlier attempt was counted as failed; the retry redeemed it.
		p.failedJobs--
	}
	p.draw(true)
}

func (p *Progress) CampaignFinished(sum Summary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clearLine()
	msg := fmt.Sprintf("campaign: %d/%d traces ok", sum.Completed, sum.Jobs)
	if sum.Failed > 0 {
		msg += fmt.Sprintf(", %d failed", sum.Failed)
	}
	if sum.Skipped > 0 {
		msg += fmt.Sprintf(", %d skipped", sum.Skipped)
	}
	if sum.Retried > 0 {
		msg += fmt.Sprintf(", %d retried", sum.Retried)
	}
	wall := sum.Wall.Seconds()
	if wall > 0 && sum.Events > 0 {
		msg += fmt.Sprintf(" | %.2g events (%.2g ev/s, %.0fx real time)",
			float64(sum.Events), float64(sum.Events)/wall, sum.VirtualS/wall)
	}
	msg += fmt.Sprintf(" in %v", sum.Wall.Round(time.Millisecond))
	fmt.Fprintln(p.W, msg)
}

// repaintInterval throttles unforced repaints of the status line.
const repaintInterval = 200 * time.Millisecond

// draw repaints the status line; force skips the throttle.
func (p *Progress) draw(force bool) {
	now := time.Now()
	if !force && now.Sub(p.lastDraw) < repaintInterval {
		return
	}
	p.lastDraw = now
	elapsed := now.Sub(p.start).Seconds()

	line := fmt.Sprintf("traces %d/%d", p.doneJobs, p.totalJobs)
	if p.failedJobs > 0 {
		line += fmt.Sprintf(" (%d failed)", p.failedJobs)
	}
	if p.totalEpochs > 0 {
		line += fmt.Sprintf(" | epochs %d/%d (%.0f%%)", p.doneEpochs, p.totalEpochs,
			100*float64(p.doneEpochs)/float64(p.totalEpochs))
	} else {
		line += fmt.Sprintf(" | epochs %d", p.doneEpochs)
	}
	if elapsed > 0 && p.doneEpochs > 0 {
		rate := float64(p.doneEpochs) / elapsed
		line += fmt.Sprintf(" | %.1f ep/s | %.2g ev/s", rate, float64(p.events)/elapsed)
		if remaining := p.totalEpochs - p.doneEpochs; remaining > 0 && p.totalEpochs > 0 {
			eta := time.Duration(float64(remaining) / rate * float64(time.Second)).Round(time.Second)
			line += fmt.Sprintf(" | ETA %v", eta)
		}
	}

	pad := ""
	if n := p.lineLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(p.W, "\r%s%s", line, pad)
	p.lineLen = len(line)
}

// println clears the status line, prints msg on its own line, and redraws.
func (p *Progress) println(msg string) {
	p.clearLine()
	fmt.Fprintln(p.W, msg)
	p.draw(true)
}

func (p *Progress) clearLine() {
	if p.lineLen > 0 {
		fmt.Fprintf(p.W, "\r%s\r", strings.Repeat(" ", p.lineLen))
		p.lineLen = 0
	}
}

// JSONL is a machine-readable Observer: one JSON object per line per
// event (every epoch included), suitable for piping into analysis tooling
// or a log collector.
type JSONL struct {
	W io.Writer

	mu    sync.Mutex
	start time.Time
	enc   *json.Encoder
}

// NewJSONL returns a JSON-lines observer writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{W: w} }

type jsonlEvent struct {
	Event    string  `json:"event"`
	Elapsed  float64 `json:"elapsed_s"` // wall seconds since campaign start
	Path     string  `json:"path,omitempty"`
	Trace    int     `json:"trace,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Attempt  int     `json:"attempt,omitempty"`
	Epoch    int     `json:"epoch,omitempty"`
	Virtual  float64 `json:"virtual_s,omitempty"`
	Events   uint64  `json:"events,omitempty"`
	Error    string  `json:"error,omitempty"`
	Jobs     int     `json:"jobs,omitempty"`
	Epochs   int     `json:"epochs,omitempty"`
	Done     int     `json:"completed,omitempty"`
	Failed   int     `json:"failed,omitempty"`
	Skipped  int     `json:"skipped,omitempty"`
	Retried  int     `json:"retried,omitempty"`
	VirtualT float64 `json:"virtual_total_s,omitempty"`
}

func (j *JSONL) emit(ev jsonlEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.enc == nil {
		j.enc = json.NewEncoder(j.W)
	}
	if j.start.IsZero() {
		j.start = time.Now()
	}
	ev.Elapsed = time.Since(j.start).Seconds()
	_ = j.enc.Encode(ev) // a broken sink must not abort the campaign
}

func (j *JSONL) CampaignStarted(jobs, epochs int) {
	j.emit(jsonlEvent{Event: "campaign_started", Jobs: jobs, Epochs: epochs})
}

func (j *JSONL) TraceStarted(job Job, attempt int) {
	j.emit(jsonlEvent{Event: "trace_started", Path: job.Path, Trace: job.Trace, Seed: job.Seed, Attempt: attempt})
}

func (j *JSONL) EpochDone(job Job, epoch int, vt float64, events uint64) {
	j.emit(jsonlEvent{Event: "epoch", Path: job.Path, Trace: job.Trace, Epoch: epoch, Virtual: vt, Events: events})
}

func (j *JSONL) TraceFinished(job Job, err error, attempt int, wall time.Duration) {
	ev := jsonlEvent{Event: "trace_finished", Path: job.Path, Trace: job.Trace, Seed: job.Seed, Attempt: attempt}
	if err != nil {
		ev.Error = err.Error()
	}
	j.emit(ev)
}

func (j *JSONL) CampaignFinished(sum Summary) {
	j.emit(jsonlEvent{
		Event: "campaign_finished", Jobs: sum.Jobs, Done: sum.Completed,
		Failed: sum.Failed, Skipped: sum.Skipped, Retried: sum.Retried,
		Events: sum.Events, VirtualT: sum.VirtualS,
	})
}
