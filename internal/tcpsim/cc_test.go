package tcpsim_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden CC traces")

// TestCCSaturatesIdlePath checks every congestion control fills an idle
// 10 Mbps pipe: the variants differ in *how* they grow, not whether they
// can use available capacity.
func TestCCSaturatesIdlePath(t *testing.T) {
	for _, cc := range []tcpsim.Congestion{tcpsim.CCReno, tcpsim.CCCubic, tcpsim.CCBBR} {
		t.Run(string(cc), func(t *testing.T) {
			eng := sim.NewEngine()
			path := simplePath(eng, 10e6, 0.04, 64*1500)
			rep := iperf.Run(eng, path, 1, iperf.Config{
				Duration: 30,
				TCP:      tcpsim.Config{Congestion: cc},
			})
			t.Logf("%s: %.2f Mbps, %d timeouts", cc, rep.ThroughputBps/1e6, rep.Timeouts)
			if rep.ThroughputBps < 7e6 {
				t.Errorf("%s throughput %.2f Mbps, want > 7 on idle 10 Mbps path", cc, rep.ThroughputBps/1e6)
			}
			if rep.ThroughputBps > 10e6 {
				t.Errorf("%s throughput %.2f Mbps exceeds capacity", cc, rep.ThroughputBps/1e6)
			}
			if rep.CC != cc {
				t.Errorf("report CC = %q, want %q", rep.CC, cc)
			}
		})
	}
}

// TestRwndClampAcrossCCs checks the receiver-limited invariant that makes
// the rwnd link type meaningful: whatever the congestion control, goodput
// cannot exceed rwnd/RTT — the advertised window caps all of them alike.
func TestRwndClampAcrossCCs(t *testing.T) {
	const (
		w   = 16 * 1024
		rtt = 0.08
	)
	ceiling := w * 8 / rtt // ~1.6 Mbps
	for _, cc := range []tcpsim.Congestion{tcpsim.CCReno, tcpsim.CCCubic, tcpsim.CCBBR} {
		t.Run(string(cc), func(t *testing.T) {
			eng := sim.NewEngine()
			path := simplePath(eng, 50e6, rtt, 1<<20)
			rep := iperf.Run(eng, path, 1, iperf.Config{
				Duration: 30,
				TCP:      tcpsim.Config{Congestion: cc, MaxWindowBytes: w},
			})
			t.Logf("%s: %.2f Mbps (ceiling %.2f)", cc, rep.ThroughputBps/1e6, ceiling/1e6)
			if rep.ThroughputBps > ceiling*1.25 {
				t.Errorf("%s goodput %.2f Mbps exceeds rwnd/RTT ceiling %.2f", cc, rep.ThroughputBps/1e6, ceiling/1e6)
			}
			if rep.ThroughputBps < ceiling*0.4 {
				t.Errorf("%s goodput %.2f Mbps far below the rwnd ceiling on a clean path", cc, rep.ThroughputBps/1e6)
			}
		})
	}
}

// TestBBRInflightNearBDP checks the model property on a deep-buffered
// path: BBR keeps inflight near the BDP while Reno fills the buffer —
// the distinction that decouples BBR throughput from loss rate.
func TestBBRInflightNearBDP(t *testing.T) {
	const (
		capBps = 10e6
		rtt    = 0.08
	)
	bdpSegs := capBps * rtt / 8 / 1460 // ≈ 68 segments
	meanPipe := func(cc tcpsim.Congestion) float64 {
		eng := sim.NewEngine()
		// Deep buffer: 4 BDPs at the bottleneck.
		path := simplePath(eng, capBps, rtt, int(4*capBps*rtt/8))
		conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{Congestion: cc, MaxWindowBytes: 4 << 20})
		conn.Sender.Start()
		eng.RunUntil(10) // past startup
		var sum float64
		const n = 200
		for i := 0; i < n; i++ {
			eng.RunUntil(eng.Now() + 0.1)
			sum += float64(conn.Sender.Pipe())
		}
		conn.Stop()
		return sum / n
	}
	bbr := meanPipe(tcpsim.CCBBR)
	reno := meanPipe(tcpsim.CCReno)
	t.Logf("mean pipe: bbr=%.1f reno=%.1f segments (BDP=%.0f)", bbr, reno, bdpSegs)
	if bbr < 0.5*bdpSegs || bbr > 2*bdpSegs {
		t.Errorf("BBR mean inflight %.1f segments, want ≈ BDP %.0f", bbr, bdpSegs)
	}
	if reno < 2*bdpSegs {
		t.Errorf("Reno mean inflight %.1f should overfill the deep buffer (BDP %.0f)", reno, bdpSegs)
	}
}

// TestSenderStats checks the CC-agnostic stats snapshot every congestion
// control must serve: identity, a sane pacing rate, and delivery-rate
// sampling that tracks actual goodput.
func TestSenderStats(t *testing.T) {
	for _, cc := range []tcpsim.Congestion{tcpsim.CCReno, tcpsim.CCCubic, tcpsim.CCBBR} {
		t.Run(string(cc), func(t *testing.T) {
			eng := sim.NewEngine()
			path := lossyPath(eng, 0.005, 3)
			conn := tcpsim.Dial(eng, path, 1, tcpsim.Config{Congestion: cc})
			conn.Sender.Start()
			eng.RunUntil(30)
			ss := conn.Sender.SenderStats()
			goodput := float64(conn.Sender.BytesAcked()) * 8 / 30
			conn.Stop()
			if ss.CC != cc {
				t.Errorf("stats CC = %q, want %q", ss.CC, cc)
			}
			if ss.WindowSegments <= 0 || ss.PacingRateBps <= 0 {
				t.Errorf("window %.1f / pacing %.0f not positive", ss.WindowSegments, ss.PacingRateBps)
			}
			if ss.DeliveryRateBps < goodput*0.1 || ss.DeliveryRateBps > goodput*10 {
				t.Errorf("delivery rate %.0f bps implausible vs goodput %.0f", ss.DeliveryRateBps, goodput)
			}
			if cc != tcpsim.CCBBR && ss.RecoveryEpisodes == 0 {
				t.Errorf("%s saw no recovery episodes on a lossy path", cc)
			}
		})
	}
}

// goldenCCScenarios are the deterministic transfer scenarios pinned by
// golden traces: each new congestion control on the paper's droptail
// regime, plus each new link type. The sampled series — virtual time,
// cumulative acked bytes and segments sent, the window — pins down the
// full closed-loop dynamics: any change to CC arithmetic, loss recovery,
// the rate-schedule transform or queue behavior shifts it.
var goldenCCScenarios = []struct {
	name string
	cfg  tcpsim.Config
	path func(eng *sim.Engine) *netem.Path
}{
	{"reno-droptail", tcpsim.Config{Congestion: tcpsim.CCReno}, goldenDroptail},
	{"cubic-droptail", tcpsim.Config{Congestion: tcpsim.CCCubic}, goldenDroptail},
	{"bbr-droptail", tcpsim.Config{Congestion: tcpsim.CCBBR}, goldenDroptail},
	{"reno-randomdrop", tcpsim.Config{Congestion: tcpsim.CCReno}, func(eng *sim.Engine) *netem.Path {
		return lossyPath(eng, 0.01, 17)
	}},
	{"cubic-cellular", tcpsim.Config{Congestion: tcpsim.CCCubic}, goldenCellular},
	{"bbr-rwnd", tcpsim.Config{Congestion: tcpsim.CCBBR, MaxWindowBytes: 8 * 1024}, func(eng *sim.Engine) *netem.Path {
		return lossyPath(eng, 0.015, 23)
	}},
}

// goldenDroptail is a shallow-buffered bottleneck: loss is congestive,
// produced by the transfer's own queue overflow.
func goldenDroptail(eng *sim.Engine) *netem.Path {
	rng := sim.NewRNG(13)
	return netem.NewPath(eng, rng, netem.PathSpec{
		Name: "droptail",
		Forward: []netem.Hop{
			{CapacityBps: 8e6, PropDelay: 0.02, BufferBytes: 24 * 1500},
		},
		Reverse: []netem.Hop{
			{CapacityBps: 40e6, PropDelay: 0.02, BufferBytes: 1 << 20},
		},
	})
}

// goldenCellular drives the bottleneck through a fixed rate trajectory:
// nominal, a 50% fade, a deep 25% fade, recovery, another dip.
func goldenCellular(eng *sim.Engine) *netem.Path {
	rng := sim.NewRNG(19)
	return netem.NewPath(eng, rng, netem.PathSpec{
		Name: "cellular",
		Forward: []netem.Hop{
			{CapacityBps: 8e6, PropDelay: 0.02, BufferBytes: 60 * 1500,
				Rate: &netem.RateSchedule{Steps: []netem.RateStep{
					{T: 3, Mult: 0.5}, {T: 6, Mult: 0.25}, {T: 9, Mult: 1.0},
					{T: 12, Mult: 0.3}, {T: 15, Mult: 0.75},
				}}},
		},
		Reverse: []netem.Hop{
			{CapacityBps: 40e6, PropDelay: 0.02, BufferBytes: 1 << 20},
		},
	})
}

// goldenCCTrace runs one scenario for 20 virtual seconds and samples the
// transfer state every 250 ms.
func goldenCCTrace(sc struct {
	name string
	cfg  tcpsim.Config
	path func(eng *sim.Engine) *netem.Path
}) string {
	eng := sim.NewEngine()
	conn := tcpsim.Dial(eng, sc.path(eng), 1, sc.cfg)
	conn.Sender.Start()
	var b strings.Builder
	for i := 1; i <= 80; i++ {
		eng.RunUntil(float64(i) * 0.25)
		st := conn.Sender.Stats()
		fmt.Fprintf(&b, "%.2f %d %d %.17g\n",
			eng.Now(), st.BytesAcked, st.SegmentsSent, conn.Sender.SenderStats().WindowSegments)
	}
	st := conn.Sender.Stats()
	fmt.Fprintf(&b, "end rtx=%d timeouts=%d events=%d\n", st.Retransmits, st.Timeouts, st.LossEvents)
	conn.Stop()
	return b.String()
}

// TestGoldenCCTraces pins the closed-loop dynamics of each congestion
// control and each new link type to recorded fixtures. Regenerate with
// `go test ./internal/tcpsim -run GoldenCC -update` — only when
// intentionally changing transfer dynamics, which invalidates recorded
// campaign datasets too.
func TestGoldenCCTraces(t *testing.T) {
	for _, sc := range goldenCCScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got := goldenCCTrace(sc)
			path := filepath.Join("testdata", "golden_cc_"+sc.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (run with -update): %v", err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				n := len(gl)
				if len(wl) < n {
					n = len(wl)
				}
				for i := 0; i < n; i++ {
					if gl[i] != wl[i] {
						t.Fatalf("trace diverges at line %d: got %q, want %q", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("trace length differs: got %d lines, want %d", len(gl), len(wl))
			}
		})
	}
}
