package tcpsim

import "math"

// Congestion names a congestion-control algorithm for Config.Congestion.
type Congestion string

// Supported congestion controls.
const (
	// CCReno is the paper-era NewReno/SACK loss response: per-ACK slow
	// start and congestion avoidance, multiplicative decrease by half.
	// The zero value of Config selects it.
	CCReno Congestion = "reno"
	// CCCubic is the RFC 8312 window-growth function: a cubic curve
	// anchored at the window where the last loss happened, with the
	// TCP-friendly region and fast convergence. The default in Linux
	// since 2.6.19 — what most large transfers on today's WANs run.
	CCCubic Congestion = "cubic"
	// CCBBR is a model-based BBR-like sender: it estimates the
	// bottleneck bandwidth (windowed-max delivery rate) and the round
	// trip propagation delay (windowed-min RTT), and caps inflight at a
	// gain-cycled multiple of the estimated BDP instead of reacting to
	// loss. Loss recovery still retransmits — the SACK machinery is the
	// sender's, not the CC's — but the window does not collapse.
	CCBBR Congestion = "bbr"
)

// AckInfo is what the sender tells its congestion control about one
// arriving ACK, after loss detection and pipe accounting ran.
type AckInfo struct {
	Acked      int64   // segments newly cumulatively acknowledged (0 on a pure dup ACK)
	Sacked     int64   // segments newly SACKed by this ACK
	Pipe       int     // conservation-of-packets inflight estimate, after this ACK
	Now        float64 // virtual time
	InRecovery bool    // a loss-recovery episode is in progress
}

// CongestionControl is the seam between the sender's reliability machinery
// (sequencing, SACK scoreboard, RTO, retransmission) and the algorithm
// that decides how much may be outstanding. Implementations must be
// deterministic and allocation-free on every per-ACK method: the sender
// calls them millions of times per simulated transfer.
type CongestionControl interface {
	// Name returns the algorithm identifier.
	Name() Congestion
	// Window returns the current congestion window in segments. The
	// sender sends while its pipe estimate is below it.
	Window() float64
	// OnAck runs once per arriving ACK, after the sender updated its
	// pipe and scoreboard. Growth decisions live here.
	OnAck(info AckInfo)
	// OnRTT delivers a clean (Karn-filtered) RTT sample.
	OnRTT(rtt, now float64)
	// OnEnterRecovery runs when a loss-recovery episode begins (one
	// congestion event).
	OnEnterRecovery(pipe int, now float64)
	// OnExitRecovery runs when the recovery point is cumulatively acked.
	OnExitRecovery(now float64)
	// OnTimeout runs on an RTO expiration, before the go-back-N
	// retransmission restarts.
	OnTimeout(now float64)
}

// NewCongestionControl builds the controller selected by cfg.Congestion
// ("" and CCReno both select Reno). cfg should already be completed by
// Defaults. It panics on an unknown name, which would otherwise
// silently change a campaign's meaning.
func NewCongestionControl(cfg Config) CongestionControl {
	switch cfg.Congestion {
	case "", CCReno:
		return newReno()
	case CCCubic:
		return newCubic()
	case CCBBR:
		return newBBR()
	default:
		panic("tcpsim: unknown congestion control " + string(cfg.Congestion))
	}
}

// renoCC is the classic RFC 2581/5681 response, extracted verbatim from
// the pre-seam Sender so default-config campaigns stay bit-identical:
// cwnd++ per ACK below ssthresh, +1/cwnd above it, halving (floor 2) on a
// congestion event, cwnd=1 on timeout.
type renoCC struct {
	cwnd     float64
	ssthresh float64
}

func newReno() *renoCC {
	return &renoCC{cwnd: initialCwnd, ssthresh: math.Inf(1)}
}

func (r *renoCC) Name() Congestion { return CCReno }
func (r *renoCC) Window() float64  { return r.cwnd }

func (r *renoCC) OnAck(info AckInfo) {
	if info.Acked == 0 || info.InRecovery {
		return
	}
	// Per-ACK window growth (RFC 2581, no byte counting): with delayed
	// ACKs this is what the throughput formulas' b = 2 models — slow
	// start doubles every two RTTs, congestion avoidance adds half a
	// segment per RTT.
	if r.cwnd < r.ssthresh {
		r.cwnd++
		if r.cwnd > r.ssthresh && !math.IsInf(r.ssthresh, 1) {
			r.cwnd = r.ssthresh
		}
	} else {
		r.cwnd += 1 / r.cwnd
	}
}

func (r *renoCC) OnRTT(rtt, now float64) {}

func (r *renoCC) OnEnterRecovery(pipe int, now float64) {
	half := r.cwnd / 2
	if half < 2 {
		half = 2
	}
	r.ssthresh = half
	r.cwnd = r.ssthresh
}

func (r *renoCC) OnExitRecovery(now float64) { r.cwnd = r.ssthresh }

func (r *renoCC) OnTimeout(now float64) {
	half := r.cwnd / 2
	if half < 2 {
		half = 2
	}
	r.ssthresh = half
	r.cwnd = 1
}
