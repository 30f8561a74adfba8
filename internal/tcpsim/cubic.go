package tcpsim

import "math"

// RFC 8312 constants: C scales the cubic curve; beta is the
// multiplicative-decrease factor (0.7, gentler than Reno's 0.5).
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// cubicCC implements CUBIC (RFC 8312), the window-growth function Linux
// has defaulted to since 2.6.19. After a loss at window W_max the window
// follows W_cubic(t) = C·(t−K)³ + W_max — concave while approaching the
// old maximum, a plateau around it, then convex probing beyond — where
// K = ∛(W_max·(1−β)/C) is the time the curve takes to climb back.
// Growth is therefore a function of *time since the loss*, not of RTT
// count, which is what detaches CUBIC throughput from the 1/RTT·√p
// PFTK form the paper's FB predictor assumes. Two RFC 8312 refinements
// are included: the TCP-friendly region (never grow slower than an
// ideal AIMD flow with the same β) and fast convergence (release
// bandwidth early when the loss point is drifting down).
type cubicCC struct {
	cwnd     float64
	ssthresh float64

	wMax       float64 // window at the last congestion event
	k          float64 // seconds from epoch start to reach wMax
	epochStart float64 // time the current growth epoch began; <0 = unset
	wEstRTT    float64 // SRTT mirror for the TCP-friendly estimate
}

func newCubic() *cubicCC {
	return &cubicCC{
		cwnd:       initialCwnd,
		ssthresh:   math.Inf(1),
		epochStart: -1,
	}
}

func (c *cubicCC) Name() Congestion { return CCCubic }
func (c *cubicCC) Window() float64  { return c.cwnd }

func (c *cubicCC) OnAck(info AckInfo) {
	if info.Acked == 0 || info.InRecovery {
		return
	}
	if c.cwnd < c.ssthresh {
		// Standard slow start below ssthresh, as RFC 8312 §4.8 keeps it.
		c.cwnd++
		if c.cwnd > c.ssthresh && !math.IsInf(c.ssthresh, 1) {
			c.cwnd = c.ssthresh
		}
		return
	}
	if c.epochStart < 0 {
		c.epochStart = info.Now
		if c.cwnd < c.wMax {
			c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
		} else {
			// No memory of a higher window: the curve starts at its
			// plateau and probes convexly from here.
			c.k = 0
			c.wMax = c.cwnd
		}
	}
	// Target the curve one RTT ahead (RFC 8312 §4.1's t+RTT), and close a
	// cwnd-th of the gap per ACK so a full window of ACKs reaches it.
	t := info.Now - c.epochStart + c.wEstRTT
	d := t - c.k
	target := cubicC*d*d*d + c.wMax
	if target > c.cwnd {
		maxTarget := 1.5 * c.cwnd // RFC 8312 §4.1 growth clamp
		if target > maxTarget {
			target = maxTarget
		}
		c.cwnd += (target - c.cwnd) / c.cwnd
	} else {
		// At or above the curve: probe minimally so the epoch clock still
		// eventually lifts the window (Linux's 1/(100·cwnd) tick).
		c.cwnd += 1 / (100 * c.cwnd)
	}
	// TCP-friendly region (RFC 8312 §4.2): an AIMD flow with β = 0.7
	// grows 3(1−β)/(1+β) segments per RTT; never undershoot it.
	if c.wEstRTT > 0 {
		wEst := c.wMax*cubicBeta + 3*(1-cubicBeta)/(1+cubicBeta)*(t/c.wEstRTT)
		if wEst > c.cwnd {
			c.cwnd = wEst
		}
	}
}

func (c *cubicCC) OnRTT(rtt, now float64) { c.wEstRTT = rtt }

func (c *cubicCC) OnEnterRecovery(pipe int, now float64) {
	c.epochStart = -1
	if c.cwnd < c.wMax {
		// Fast convergence: the achievable window is shrinking, so
		// remember a point below the current one to free bandwidth for
		// the newcomer that is squeezing us.
		c.wMax = c.cwnd * (2 - cubicBeta) / 2
	} else {
		c.wMax = c.cwnd
	}
	next := c.cwnd * cubicBeta
	if next < 2 {
		next = 2
	}
	c.ssthresh = next
	c.cwnd = next
}

func (c *cubicCC) OnExitRecovery(now float64) { c.cwnd = c.ssthresh }

func (c *cubicCC) OnTimeout(now float64) {
	c.epochStart = -1
	if c.cwnd < c.wMax {
		c.wMax = c.cwnd * (2 - cubicBeta) / 2
	} else {
		c.wMax = c.cwnd
	}
	next := c.cwnd * cubicBeta
	if next < 2 {
		next = 2
	}
	c.ssthresh = next
	c.cwnd = 1
}
