package tcpsim_test

import (
	"testing"

	"repro/internal/tcpsim"
)

// ccSteadyState feeds ctl the per-ACK decision stream of a long transfer
// at the CongestionControl seam, one ACK per step i: growth on cumulative
// ACKs, an RTT sample every 97 ACKs, and a recovery episode every 5 000.
// It returns the advanced virtual clock.
func ccSteadyState(ctl tcpsim.CongestionControl, i int, now float64) float64 {
	now += 0.0001
	if i%97 == 0 {
		ctl.OnRTT(0.05, now)
	}
	ctl.OnAck(tcpsim.AckInfo{Acked: 1, Pipe: int(ctl.Window()), Now: now})
	if i%5000 == 4999 {
		ctl.OnEnterRecovery(int(ctl.Window()), now)
		ctl.OnExitRecovery(now)
	}
	return now
}

// TestCongestionControlAllocFree holds the seam's contract: the sender
// calls these methods millions of times per simulated transfer, and none
// of them may allocate. Each measured run is 5 000 ACKs, so it spans the
// RTT samples and one recovery episode.
func TestCongestionControlAllocFree(t *testing.T) {
	for _, cc := range []tcpsim.Congestion{tcpsim.CCReno, tcpsim.CCCubic, tcpsim.CCBBR} {
		t.Run(string(cc), func(t *testing.T) {
			ctl := tcpsim.NewCongestionControl(tcpsim.Config{Congestion: cc}.Defaults())
			i, now := 0, 0.0
			acks := func() {
				for end := i + 5000; i < end; i++ {
					now = ccSteadyState(ctl, i, now)
				}
			}
			acks()
			if got := testing.AllocsPerRun(10, acks); got != 0 {
				t.Errorf("%v allocs per 5000 ACKs, want 0", got)
			}
			if ctl.Window() <= 0 {
				t.Fatal("window collapsed")
			}
		})
	}
}

func benchCCSteadyState(b *testing.B, cc tcpsim.Congestion) {
	ctl := tcpsim.NewCongestionControl(tcpsim.Config{Congestion: cc}.Defaults())
	b.ReportAllocs()
	now := 0.0
	for i := 0; i < b.N; i++ {
		now = ccSteadyState(ctl, i, now)
	}
	if ctl.Window() <= 0 {
		b.Fatal("window collapsed")
	}
}

// BenchmarkCUBICTransfer measures CUBIC's steady-state transfer hot path.
func BenchmarkCUBICTransfer(b *testing.B) { benchCCSteadyState(b, tcpsim.CCCubic) }

// BenchmarkBBRTransfer measures BBR's steady-state transfer hot path
// (round accounting, minmax filters, state machine — all per-ACK).
func BenchmarkBBRTransfer(b *testing.B) { benchCCSteadyState(b, tcpsim.CCBBR) }
