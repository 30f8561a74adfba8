package tcpsim

import "math"

// BBR model parameters (after the BBR v1 paper and the Linux
// implementation, simplified to a window-clocked sender: the simulator
// has no pacer, so the pacing-gain cycle is applied to the inflight cap
// directly — inflight ≈ gain × BDP is the invariant either way).
const (
	bbrHighGain         = 2.885 // 2/ln2: doubles delivery per round in startup
	bbrDrainGain        = 1 / bbrHighGain
	bbrMinWindow        = 4.0  // segments; floor in every state
	bbrBtlBwWindowRound = 10   // BtlBw max-filter length, in rounds
	bbrRTpropWindowSec  = 10.0 // RTprop min-filter length, in seconds
	bbrProbeRTTSec      = 0.2  // time spent at the window floor in probeRTT
	bbrFullBwThresh     = 1.25 // startup exits after 3 rounds below this growth
	bbrFullBwRounds     = 3
)

// bbrGainCycle is the probeBW pacing-gain sequence: probe above the
// estimated BDP for one RTprop, drain the queue it built, then cruise.
// Entry always starts at the first cruise phase (index 2) so runs are
// deterministic (Linux randomizes the entry phase instead).
var bbrGainCycle = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

const bbrCycleStart = 2

// bbr states.
const (
	bbrStartup = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

// bbrSample is one timestamped entry of the windowed BtlBw max-filter.
type bbrSample struct {
	v     float64 // delivery rate, segments/sec
	round int64
}

// bbrCC is a model-based BBR-like congestion control: it estimates the
// path's bottleneck bandwidth (windowed max of per-round delivery rate)
// and round-trip propagation delay (windowed min of RTT samples), and
// caps inflight at gain × BtlBw × RTprop. Loss plays no role in the
// window — recovery retransmits, but the model does not collapse — which
// is precisely the property that breaks loss-based formula predictors:
// p no longer determines throughput.
type bbrCC struct {
	state   int
	window  float64
	initial float64 // fallback window before the model has estimates

	// BtlBw: 3-slot windowed max over the last bbrBtlBwWindowRound rounds.
	btlBw [3]bbrSample

	// RTprop: windowed min over bbrRTpropWindowSec.
	rtProp      float64
	rtPropStamp float64

	// Round accounting. A round ends when everything that was in flight
	// at the previous round's end has been delivered.
	delivered     int64   // segments delivered (cum-acked or SACKed)
	roundCount    int64   // completed rounds
	nextRoundAt   int64   // delivered count that closes the current round
	roundDeliv    int64   // delivered at the start of the current round
	roundStamp    float64 // time the current round started
	started       bool
	haveDeliveryS bool // at least one delivery-rate sample taken

	// Startup full-pipe detection.
	fullBw      float64
	fullBwCount int
	filledPipe  bool

	// probeBW gain cycling.
	cycleIdx   int
	cycleStamp float64

	// probeRTT bookkeeping.
	probeRTTDone float64 // time the floor-hold ends
	prevState    int     // state to restore after probeRTT

	// After an RTO the window holds at the floor until cumulative
	// progress resumes (the model's estimates survive; the burst must
	// not).
	timeoutHold bool
}

func newBBR() *bbrCC {
	init := float64(initialCwnd)
	if init < bbrMinWindow {
		init = bbrMinWindow
	}
	return &bbrCC{
		state:   bbrStartup,
		window:  init,
		initial: init,
		rtProp:  math.Inf(1),
	}
}

func (b *bbrCC) Name() Congestion { return CCBBR }

func (b *bbrCC) Window() float64 {
	if b.timeoutHold {
		return bbrMinWindow
	}
	return b.window
}

// btlBwEst returns the filtered bottleneck bandwidth in segments/sec.
func (b *bbrCC) btlBwEst() float64 { return b.btlBw[0].v }

// bdp returns the estimated bandwidth-delay product in segments, or 0
// while either estimate is missing.
func (b *bbrCC) bdp() float64 {
	bw := b.btlBwEst()
	if bw == 0 || math.IsInf(b.rtProp, 1) {
		return 0
	}
	return bw * b.rtProp
}

// updateBtlBw inserts a delivery-rate sample into the windowed max-filter
// (the 3-slot running-max of Linux's lib/minmax.c: best, second, third,
// each guarding a subwindow so the max can age out).
func (b *bbrCC) updateBtlBw(v float64, round int64) {
	win := int64(bbrBtlBwWindowRound)
	s := &b.btlBw
	if v >= s[0].v || round-s[2].round > win {
		s[0] = bbrSample{v, round}
		s[1] = s[0]
		s[2] = s[0]
		return
	}
	if v >= s[1].v {
		s[1] = bbrSample{v, round}
		s[2] = s[1]
	} else if v >= s[2].v {
		s[2] = bbrSample{v, round}
	}
	// Age subwindows: when the best is older than the window, promote.
	if round-s[0].round > win {
		s[0] = s[1]
		s[1] = s[2]
		s[2] = bbrSample{v, round}
	} else if s[1].round == s[0].round && round-s[1].round > win/4 {
		s[1] = bbrSample{v, round}
		s[2] = s[1]
	} else if s[2].round == s[1].round && round-s[2].round > win/2 {
		s[2] = bbrSample{v, round}
	}
}

func (b *bbrCC) OnAck(info AckInfo) {
	if info.Acked > 0 {
		b.timeoutHold = false
	}
	newly := info.Acked + info.Sacked
	if newly <= 0 {
		b.advanceState(info)
		return
	}
	b.delivered += newly
	if !b.started {
		b.started = true
		b.roundStamp = info.Now
		b.roundDeliv = b.delivered
		b.nextRoundAt = b.delivered + int64(info.Pipe)
	} else if b.delivered >= b.nextRoundAt {
		// Round closed: sample the delivery rate over the round and feed
		// the max-filter.
		elapsed := info.Now - b.roundStamp
		if elapsed > 0 {
			rate := float64(b.delivered-b.roundDeliv) / elapsed
			b.roundCount++
			b.updateBtlBw(rate, b.roundCount)
			b.haveDeliveryS = true
			b.checkFullPipe()
		}
		b.roundStamp = info.Now
		b.roundDeliv = b.delivered
		b.nextRoundAt = b.delivered + int64(info.Pipe)
	}
	b.advanceState(info)
}

// checkFullPipe runs once per round in startup: three rounds without 25%
// bandwidth growth means the pipe is full.
func (b *bbrCC) checkFullPipe() {
	if b.filledPipe || b.state != bbrStartup {
		return
	}
	if bw := b.btlBwEst(); bw >= b.fullBw*bbrFullBwThresh {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
	if b.fullBwCount >= bbrFullBwRounds {
		b.filledPipe = true
	}
}

// advanceState runs the probe state machine and recomputes the window.
func (b *bbrCC) advanceState(info AckInfo) {
	now := info.Now
	// RTprop expiry forces a probeRTT dip so queue-inflated samples
	// cannot pin the estimate high forever.
	if b.state != bbrProbeRTT && b.haveDeliveryS &&
		!math.IsInf(b.rtProp, 1) && now-b.rtPropStamp > bbrRTpropWindowSec {
		b.prevState = b.state
		b.state = bbrProbeRTT
		b.probeRTTDone = now + bbrProbeRTTSec
	}

	switch b.state {
	case bbrStartup:
		if b.filledPipe {
			b.state = bbrDrain
		}
	case bbrDrain:
		if float64(info.Pipe) <= b.bdp() {
			b.state = bbrProbeBW
			b.cycleIdx = bbrCycleStart
			b.cycleStamp = now
		}
	case bbrProbeBW:
		// Advance the gain cycle once per RTprop. The 0.75 phase may end
		// early once the probe queue has drained.
		dwell := b.rtProp
		if math.IsInf(dwell, 1) {
			dwell = 0.1
		}
		if now-b.cycleStamp > dwell ||
			(bbrGainCycle[b.cycleIdx] < 1 && float64(info.Pipe) <= b.bdp()) {
			b.cycleIdx = (b.cycleIdx + 1) % len(bbrGainCycle)
			b.cycleStamp = now
		}
	case bbrProbeRTT:
		if now >= b.probeRTTDone {
			b.rtPropStamp = now // fresh lease on the estimate
			if b.filledPipe {
				b.state = bbrProbeBW
				b.cycleIdx = bbrCycleStart
				b.cycleStamp = now
			} else {
				b.state = b.prevState
			}
		}
	}

	b.window = b.computeWindow()
}

func (b *bbrCC) computeWindow() float64 {
	if b.state == bbrProbeRTT {
		return bbrMinWindow
	}
	bdp := b.bdp()
	if bdp == 0 {
		return b.initial
	}
	var gain float64
	switch b.state {
	case bbrStartup:
		gain = bbrHighGain
	case bbrDrain:
		gain = bbrDrainGain
	default:
		gain = bbrGainCycle[b.cycleIdx]
	}
	w := gain * bdp
	if w < bbrMinWindow {
		w = bbrMinWindow
	}
	return w
}

func (b *bbrCC) OnRTT(rtt, now float64) {
	// <= (not <) so a stable path keeps refreshing the lease and never
	// needs a probeRTT dip, exactly as in BBR v1.
	if rtt <= b.rtProp || now-b.rtPropStamp > bbrRTpropWindowSec {
		b.rtProp = rtt
		b.rtPropStamp = now
	}
}

// Loss does not change the model: recovery retransmits under the same
// inflight cap.
func (b *bbrCC) OnEnterRecovery(pipe int, now float64) {}
func (b *bbrCC) OnExitRecovery(now float64)            {}

func (b *bbrCC) OnTimeout(now float64) { b.timeoutHold = true }
