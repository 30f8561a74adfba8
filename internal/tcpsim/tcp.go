// Package tcpsim implements a packet-level TCP sender and receiver over
// netem paths, modelled on the Linux TCP of the paper's era: slow start,
// congestion avoidance, SACK-based loss recovery with a pipe (conservation
// of packets) algorithm, RFC 6298 retransmission timeouts with exponential
// backoff and a 1 s minimum, go-back-N style retransmission of the
// outstanding window after a timeout, Karn-correct timed-segment RTT
// sampling, delayed ACKs, and an advertised-window cap (the "socket
// buffer" knob the paper controls through IPerf's -w). NewReno-style
// recovery without SACK is kept only as the reference the recovery tests
// compare SACK against.
//
// Besides moving bytes, connections export the quantities the paper's
// analysis needs: the average RTT the flow experienced (T), the packet loss
// rate it saw (p), and the congestion-event rate (p′).
package tcpsim

import (
	"math"

	"repro/internal/netem"
	"repro/internal/sim"
)

// The connection constants of the paper's Linux TCP; the initial
// slow-start threshold is +Inf. Only the advertised window, delayed ACKs
// and the congestion control vary between flows.
const (
	mss           = 1460 // segment payload bytes
	headerBytes   = 40   // TCP/IP header overhead per packet
	initialCwnd   = 2    // initial congestion window, segments
	delAckTimeout = 0.2  // delayed-ACK timer, seconds
	minRTO        = 1.0  // minimum RTO, seconds (RFC 6298)
	maxRTO        = 60.0 // maximum RTO, seconds
)

// Config sets connection parameters. The zero value is completed by
// Defaults.
type Config struct {
	MaxWindowBytes int  // advertised window W / socket buffer (default 1 MB)
	DelayedAck     bool // ACK every other in-order segment

	// Congestion selects the congestion-control algorithm (CCReno,
	// CCCubic, CCBBR). Empty means CCReno, the paper-era default.
	Congestion Congestion

	// noSACK disables SACK and falls back to NewReno recovery: the
	// reference the recovery tests compare SACK against.
	noSACK bool
}

// Defaults fills unset fields with standard values and returns the result.
func (c Config) Defaults() Config {
	if c.MaxWindowBytes == 0 {
		c.MaxWindowBytes = 1 << 20
	}
	if c.Congestion == "" {
		c.Congestion = CCReno
	}
	return c
}

// Stats aggregates what a connection did and observed.
type Stats struct {
	SegmentsSent    int64 // data segments transmitted, including retransmits
	Retransmits     int64 // retransmitted segments
	FastRetransmits int64 // loss-recovery (non-timeout) retransmits
	Timeouts        int64 // RTO expirations
	LossEvents      int64 // congestion events (recovery episodes + timeouts)
	BytesAcked      int64 // payload bytes cumulatively acknowledged

	RTTSamples int64
	rttSum     float64
}

// MeanRTT returns the average of the connection's RTT samples, in seconds
// (0 if no sample was taken).
func (s *Stats) MeanRTT() float64 {
	if s.RTTSamples == 0 {
		return 0
	}
	return s.rttSum / float64(s.RTTSamples)
}

// LossRate returns p: the fraction of transmitted data segments that were
// lost, estimated from retransmissions.
func (s *Stats) LossRate() float64 {
	if s.SegmentsSent == 0 {
		return 0
	}
	return float64(s.Retransmits) / float64(s.SegmentsSent)
}

// CongestionEventRate returns p′: congestion events per transmitted
// segment, the quantity the PFTK derivation actually calls for (see Goyal
// et al. and Section 3.3 of the paper).
func (s *Stats) CongestionEventRate() float64 {
	if s.SegmentsSent == 0 {
		return 0
	}
	return float64(s.LossEvents) / float64(s.SegmentsSent)
}

// segState tracks one outstanding segment.
type segState struct {
	inFlight int8 // copies believed to be in the network
	sacked   bool
	lost     bool
	rtx      bool // retransmitted at least once (Karn)
}

// dupThresh is the classic three-duplicate-ACK loss threshold.
const dupThresh = 3

// Sender is the TCP source. Create with NewSender, then Start. The sender
// keeps transmitting until Stop (bulk mode) or until the optional byte
// limit is exhausted.
type Sender struct {
	cfg  Config
	eng  *sim.Engine
	out  *netem.Endpoint
	flow netem.FlowID

	// Sequence space is counted in segments.
	nextSeq    int64
	highestAck int64 // first unacknowledged segment
	// segs is a power-of-two ring over the advertised window: every live
	// sequence (highestAck ≤ seq < nextSeq, a span trySend bounds by
	// maxWindowSegs) owns a distinct slot, retired slots are re-zeroed by
	// the cumulative ACK, so steady state allocates nothing.
	segs    []segState
	segMask int64
	pipe    int // conservation-of-packets estimate of segments in flight

	cc         CongestionControl
	dupAcks    int
	inRecovery bool
	recover    int64 // nextSeq at loss detection
	sackedNow  int64 // segments newly SACKed by the ACK being processed

	// SACK scoreboard.
	scoreboard blockList
	gaps       []Block // processSACK scratch, reused across ACKs
	highSacked int64   // highest sacked segment + 1
	lossScan   int64   // next seq to evaluate for loss declaration
	rtxCursor  int64   // next candidate lost segment to retransmit
	// vackCursor attributes NewReno duplicate ACKs to concrete segments:
	// each dup ACK proves some post-hole segment arrived, so that
	// segment's in-flight copy is retired from the pipe here rather than
	// double-retired later by the cumulative ACK.
	vackCursor int64

	// RTO state (RFC 6298).
	srtt, rttvar float64
	rto          float64
	backoff      int
	rtoTimer     sim.Timer
	rtoFn        func() // cached s.onTimeout closure (no per-arm allocation)

	// Delivery-rate sampling for SenderStats: segments delivered
	// (cumulatively acked or SACKed) over wall-clock windows of ~1 SRTT.
	delivered    int64
	drMarkDeliv  int64
	drMarkStamp  float64
	deliveryRate float64 // bytes/sec, most recent completed sample

	// Timed-segment RTT sampling (Karn's algorithm).
	timing   bool
	timedSeq int64
	timedAt  float64

	limitSegments int64 // 0 = unlimited
	stopped       bool
	done          func()

	stats Stats
}

// NewSender creates a sender for flow on endpoint ep. ACK packets for the
// flow must be routed back to ep (the caller wires the receiver on the peer
// endpoint). cfg is completed with Defaults.
func NewSender(eng *sim.Engine, ep *netem.Endpoint, flow netem.FlowID, cfg Config) *Sender {
	cfg = cfg.Defaults()
	s := &Sender{
		cfg:  cfg,
		eng:  eng,
		out:  ep,
		flow: flow,
		cc:   NewCongestionControl(cfg),
		rto:  3.0, // RFC 6298 initial RTO
	}
	// Ring capacity: the smallest power of two that holds every sequence
	// in one advertised window (span ≤ maxWindowSegs, so maxWindowSegs+1
	// distinct slots suffice).
	ringSize := int64(1)
	for ringSize < s.maxWindowSegs()+1 {
		ringSize <<= 1
	}
	s.segs = make([]segState, ringSize)
	s.segMask = ringSize - 1
	s.rtoFn = s.onTimeout
	ep.Register(flow, netem.ReceiverFunc(s.onAck))
	return s
}

// SetLimit caps the transfer at n payload bytes (rounded up to whole
// segments). Zero means unlimited. The done callback, if non-nil, fires
// when the last byte is acknowledged.
func (s *Sender) SetLimit(n int64, done func()) {
	if n <= 0 {
		s.limitSegments = 0
	} else {
		s.limitSegments = (n + mss - 1) / mss
	}
	s.done = done
}

// Start begins transmitting.
func (s *Sender) Start() {
	s.drMarkStamp = s.eng.Now()
	s.trySend()
}

// Stop halts the sender: cancels timers and stops transmission. Stats
// remain readable.
func (s *Sender) Stop() {
	s.stopped = true
	s.rtoTimer.Cancel()
	s.rtoTimer = sim.Timer{}
	s.out.Register(s.flow, nil)
}

// Stats returns a pointer to the sender's counters (live; callers must not
// mutate).
func (s *Sender) Stats() *Stats { return &s.stats }

// BytesAcked returns payload bytes cumulatively acknowledged so far.
func (s *Sender) BytesAcked() int64 { return s.stats.BytesAcked }

// SenderStats is a congestion-control-agnostic snapshot of a sender's
// rate state. Unlike a congestion window and ssthresh — whose meaning is
// Reno-specific and degenerate under other controls (BBR has no
// ssthresh) — these fields are defined for every algorithm, so testbed
// epochs and obs metrics can record them without knowing which variant
// ran.
type SenderStats struct {
	CC               Congestion // algorithm that produced these numbers
	WindowSegments   float64    // current send window, segments
	PacingRateBps    float64    // window/SRTT in payload bits/sec (0 before an RTT sample)
	DeliveryRateBps  float64    // most recent measured delivery rate, payload bits/sec
	RecoveryEpisodes int64      // fast-recovery episodes entered
}

// SenderStats snapshots the sender's CC-agnostic rate state.
func (s *Sender) SenderStats() SenderStats {
	st := SenderStats{
		CC:               s.cc.Name(),
		WindowSegments:   s.cc.Window(),
		DeliveryRateBps:  s.deliveryRate,
		RecoveryEpisodes: s.stats.FastRetransmits,
	}
	if s.srtt > 0 {
		st.PacingRateBps = st.WindowSegments * mss * 8 / s.srtt
	}
	return st
}

func (s *Sender) maxWindowSegs() int64 {
	w := int64(s.cfg.MaxWindowBytes) / mss
	if w < 1 {
		w = 1
	}
	return w
}

// seg returns the ring slot for seq. Valid only for live sequences
// (highestAck ≤ seq < nextSeq, plus nextSeq itself at transmit time);
// slots are zeroed when the cumulative ACK retires them, so a fresh
// sequence always starts from the zero value — exactly what the old
// map-of-pointers handed out on first touch.
func (s *Sender) seg(seq int64) *segState {
	return &s.segs[seq&s.segMask]
}

// trySend transmits as much as the congestion and advertised windows
// allow: lost segments first (loss recovery), then new data.
func (s *Sender) trySend() {
	if s.stopped {
		return
	}
	capSegs := s.cc.Window()
	if !s.inRecovery && s.dupAcks > 0 {
		// Limited Transmit (RFC 3042): the first two duplicate ACKs may
		// clock out new segments, avoiding an RTO when the window is too
		// small for three duplicate ACKs to arrive.
		lt := float64(s.dupAcks)
		if lt > 2 {
			lt = 2
		}
		capSegs += lt
	}
	if w := float64(s.maxWindowSegs()); w < capSegs {
		capSegs = w
	}
	for float64(s.pipe) < capSegs {
		if seq, ok := s.nextLost(); ok {
			s.transmit(seq, true)
			continue
		}
		// New data, bounded by the advertised window and byte limit.
		if s.nextSeq-s.highestAck >= s.maxWindowSegs() {
			return
		}
		if s.limitSegments > 0 && s.nextSeq >= s.limitSegments {
			return
		}
		s.transmit(s.nextSeq, false)
		s.nextSeq++
	}
}

// nextLost scans for the next declared-lost segment that is not in flight
// and not already sacked or acked.
func (s *Sender) nextLost() (int64, bool) {
	if s.rtxCursor < s.highestAck {
		s.rtxCursor = s.highestAck
	}
	for ; s.rtxCursor < s.nextSeq; s.rtxCursor++ {
		st := s.seg(s.rtxCursor)
		if st.sacked || !st.lost || st.inFlight > 0 {
			continue
		}
		return s.rtxCursor, true
	}
	return 0, false
}

func (s *Sender) transmit(seq int64, isRetransmit bool) {
	st := s.seg(seq)
	st.inFlight++
	s.pipe++
	s.stats.SegmentsSent++
	if isRetransmit {
		st.rtx = true
		st.lost = false // given another chance; RTO re-declares if needed
		s.stats.Retransmits++
		if s.timing && seq == s.timedSeq {
			s.timing = false // Karn: never time a retransmitted segment
		}
	} else if !s.timing {
		s.timing = true
		s.timedSeq = seq
		s.timedAt = s.eng.Now()
	}
	pkt := s.out.NewPacket()
	pkt.Flow = s.flow
	pkt.Kind = netem.KindData
	pkt.Size = mss + headerBytes
	pkt.Seq = seq
	s.out.Send(pkt)
	if !s.rtoTimer.Pending() {
		s.armRTO()
	}
}

func (s *Sender) armRTO() {
	s.rtoTimer.Cancel()
	d := s.rto * float64(int64(1)<<uint(s.backoff))
	if d > maxRTO {
		d = maxRTO
	}
	s.rtoTimer = s.eng.Schedule(d, s.rtoFn)
}

func (s *Sender) onTimeout() {
	if s.stopped || s.nextSeq == s.highestAck {
		return
	}
	s.stats.Timeouts++
	s.stats.LossEvents++
	s.cc.OnTimeout(s.eng.Now())
	s.dupAcks = 0
	s.inRecovery = false
	s.backoff++
	if s.backoff > 6 {
		s.backoff = 6
	}
	s.timing = false
	// Everything unsacked and outstanding is presumed lost; retransmission
	// restarts from the left edge (go-back-N over the holes).
	for seq := s.highestAck; seq < s.nextSeq; seq++ {
		st := s.seg(seq)
		if st.sacked {
			continue
		}
		if !st.lost || st.inFlight > 0 {
			s.pipe -= int(st.inFlight)
			st.inFlight = 0
			st.lost = true
		}
	}
	if s.pipe < 0 {
		s.pipe = 0
	}
	s.rtxCursor = s.highestAck
	s.lossScan = s.highestAck
	s.transmit(s.highestAck, true)
	s.armRTO()
}

func (s *Sender) recordRTT(rtt float64) {
	s.stats.RTTSamples++
	s.stats.rttSum += rtt
	if s.stats.RTTSamples == 1 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		s.rttvar = (1-beta)*s.rttvar + beta*math.Abs(s.srtt-rtt)
		s.srtt = (1-alpha)*s.srtt + alpha*rtt
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
	s.cc.OnRTT(rtt, s.eng.Now())
}

func (s *Sender) onAck(pkt *netem.Packet) {
	if s.stopped || pkt.Kind != netem.KindAck {
		s.out.ReleasePacket(pkt)
		return
	}
	s.sackedNow = 0
	if !s.cfg.noSACK {
		if blocks, ok := pkt.Meta.([]Block); ok {
			s.processSACK(blocks)
		}
	}
	ack := pkt.Ack
	// The ACK is fully consumed; recycle it before the send burst it may
	// trigger, so trySend can reuse the very packet that clocked it out.
	s.out.ReleasePacket(pkt)
	switch {
	case ack > s.highestAck:
		s.onNewAck(ack)
	case ack == s.highestAck:
		s.onDupAck()
	}
	s.sampleDeliveryRate(s.eng.Now())
	s.declareLosses()
	s.maybeEnterRecovery()
	s.trySend()
}

// sampleDeliveryRate closes a delivery-rate measurement window once it
// spans at least one SRTT (10 ms floor before the first RTT sample).
func (s *Sender) sampleDeliveryRate(now float64) {
	interval := s.srtt
	if interval < 0.01 {
		interval = 0.01
	}
	elapsed := now - s.drMarkStamp
	if elapsed < interval {
		return
	}
	if n := s.delivered - s.drMarkDeliv; n > 0 {
		s.deliveryRate = float64(n) * mss * 8 / elapsed
	}
	s.drMarkDeliv = s.delivered
	s.drMarkStamp = now
}

// processSACK merges the receiver-reported blocks into the scoreboard and
// adjusts the pipe for newly sacked segments.
func (s *Sender) processSACK(blocks []Block) {
	for _, b := range blocks {
		start, end := b.Start, b.End
		if start < s.highestAck {
			start = s.highestAck
		}
		if end > s.nextSeq {
			end = s.nextSeq
		}
		if end <= start {
			continue
		}
		s.gaps = s.scoreboard.Subtract(s.gaps[:0], start, end)
		for _, nb := range s.gaps {
			for seq := nb.Start; seq < nb.End; seq++ {
				st := s.seg(seq)
				if st.sacked {
					continue
				}
				st.sacked = true
				s.sackedNow++
				s.delivered++
				s.pipe -= int(st.inFlight)
				st.inFlight = 0
			}
		}
		s.scoreboard.Add(start, end)
	}
	if m := s.scoreboard.Max(); m > s.highSacked {
		s.highSacked = m
	}
	if s.pipe < 0 {
		s.pipe = 0
	}
}

// declareLosses applies the FACK-style rule: an unsacked segment with the
// highest sacked sequence more than dupThresh ahead is declared lost.
func (s *Sender) declareLosses() {
	if s.cfg.noSACK || s.highSacked == 0 {
		return
	}
	if s.lossScan < s.highestAck {
		s.lossScan = s.highestAck
	}
	limit := s.highSacked - dupThresh
	for ; s.lossScan < limit; s.lossScan++ {
		st := s.seg(s.lossScan)
		if st.sacked || st.lost {
			continue
		}
		if st.rtx && st.inFlight > 0 {
			// An outstanding retransmission: leave it to the RTO.
			continue
		}
		st.lost = true
		s.pipe -= int(st.inFlight)
		st.inFlight = 0
		if s.pipe < 0 {
			s.pipe = 0
		}
		if s.rtxCursor > s.lossScan {
			s.rtxCursor = s.lossScan
		}
	}
}

// maybeEnterRecovery starts a loss-recovery episode (one congestion event)
// when loss has been detected and none is in progress.
func (s *Sender) maybeEnterRecovery() {
	if s.inRecovery || s.stopped {
		return
	}
	lossDetected := s.dupAcks >= dupThresh
	if !s.cfg.noSACK && s.highSacked-s.highestAck > dupThresh {
		lossDetected = true
	}
	if !lossDetected {
		return
	}
	s.stats.LossEvents++
	s.stats.FastRetransmits++
	s.inRecovery = true
	s.recover = s.nextSeq
	s.cc.OnEnterRecovery(s.pipe, s.eng.Now())
	// The left edge is lost by definition of the trigger.
	st := s.seg(s.highestAck)
	if !st.sacked && !st.lost {
		st.lost = true
		s.pipe -= int(st.inFlight)
		st.inFlight = 0
		if s.pipe < 0 {
			s.pipe = 0
		}
	}
	if s.rtxCursor > s.highestAck {
		s.rtxCursor = s.highestAck
	}
	if s.cfg.noSACK {
		// The dupThresh duplicate ACKs that triggered recovery each
		// signalled a delivered post-hole segment.
		s.vackCursor = s.highestAck + 1
		for i := 0; i < dupThresh; i++ {
			s.virtualDeliver()
		}
	}
}

// virtualDeliver retires the in-flight copy of the next outstanding
// segment above the hole (NewReno mode, where no SACK information says
// which segment a duplicate ACK stands for).
func (s *Sender) virtualDeliver() {
	if s.vackCursor <= s.highestAck {
		s.vackCursor = s.highestAck + 1
	}
	for ; s.vackCursor < s.nextSeq; s.vackCursor++ {
		st := s.seg(s.vackCursor)
		if st.inFlight == 0 {
			continue
		}
		st.inFlight--
		if s.pipe > 0 {
			s.pipe--
		}
		s.vackCursor++
		return
	}
}

func (s *Sender) onNewAck(ack int64) {
	s.backoff = 0
	// Retire acked segments from the pipe and take the RTT sample.
	for seq := s.highestAck; seq < ack; seq++ {
		st := s.seg(seq)
		if s.timing && seq == s.timedSeq {
			if !st.rtx {
				s.recordRTT(s.eng.Now() - s.timedAt)
			}
			s.timing = false
		}
		s.pipe -= int(st.inFlight)
		if !st.sacked {
			s.delivered++
		}
		*st = segState{} // the slot is free for seq+ringSize
	}
	if s.pipe < 0 {
		s.pipe = 0
	}
	acked := ack - s.highestAck
	s.highestAck = ack
	s.scoreboard.TrimBelow(ack)
	if s.lossScan < ack {
		s.lossScan = ack
	}

	// Growth and the recovery exit both belong to the congestion control,
	// but the exit ACK must not also count as a growth ACK (the pre-seam
	// code's if/else), so OnAck sees the recovery state from before the
	// exit was processed.
	wasInRecovery := s.inRecovery
	if s.inRecovery {
		if ack >= s.recover {
			s.inRecovery = false
			s.cc.OnExitRecovery(s.eng.Now())
			s.dupAcks = 0
		} else if s.cfg.noSACK {
			// NewReno partial ACK: the next hole is the segment at the new
			// left edge; mark it lost so trySend retransmits it.
			st := s.seg(ack)
			if !st.lost && st.inFlight > 0 {
				st.lost = true
				s.pipe -= int(st.inFlight)
				st.inFlight = 0
				if s.pipe < 0 {
					s.pipe = 0
				}
			}
			if s.rtxCursor > ack {
				s.rtxCursor = ack
			}
		}
	} else {
		s.dupAcks = 0
	}
	s.cc.OnAck(AckInfo{
		Acked:      acked,
		Sacked:     s.sackedNow,
		Pipe:       s.pipe,
		Now:        s.eng.Now(),
		InRecovery: wasInRecovery,
	})

	if s.nextSeq > s.highestAck {
		s.armRTO()
	} else {
		s.rtoTimer.Cancel()
	}
	s.finishAck()
}

func (s *Sender) finishAck() {
	s.stats.BytesAcked = s.highestAck * mss
	if s.limitSegments > 0 && s.highestAck >= s.limitSegments {
		s.stats.BytesAcked = s.limitSegments * mss
		s.rtoTimer.Cancel()
		if s.done != nil {
			done := s.done
			s.done = nil
			done()
		}
	}
}

func (s *Sender) onDupAck() {
	if s.nextSeq == s.highestAck {
		return
	}
	s.dupAcks++
	if s.cfg.noSACK && s.inRecovery {
		// A dup ACK proves one more post-hole segment was delivered;
		// retire its in-flight copy via the virtual-ACK cursor so the
		// later cumulative ACK does not retire it a second time.
		s.virtualDeliver()
	}
	if s.cfg.noSACK && !s.inRecovery && s.dupAcks >= dupThresh {
		// Loss of the left edge; maybeEnterRecovery (called by onAck)
		// performs the actual state change.
		st := s.seg(s.highestAck)
		if st.inFlight > 0 {
			st.lost = true
			s.pipe -= int(st.inFlight)
			st.inFlight = 0
			if s.pipe < 0 {
				s.pipe = 0
			}
		}
	}
	// No cumulative progress, but the SACK scoreboard may have moved:
	// delivery-model controls (BBR) account for it; window-based ones
	// ignore Acked == 0.
	s.cc.OnAck(AckInfo{
		Sacked:     s.sackedNow,
		Pipe:       s.pipe,
		Now:        s.eng.Now(),
		InRecovery: s.inRecovery,
	})
}
