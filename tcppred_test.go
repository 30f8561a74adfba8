package tcppred_test

import (
	"math"
	"strings"
	"testing"

	tcppred "repro"
)

func demoSpec(capBps, rtt float64) tcppred.PathSpec {
	buf := int(capBps * rtt / 8)
	if buf < 24*1500 {
		buf = 24 * 1500
	}
	return tcppred.PathSpec{
		Name: "api-test",
		Forward: []tcppred.Hop{
			{CapacityBps: capBps * 5, PropDelay: rtt / 8, BufferBytes: 4 << 20},
			{CapacityBps: capBps, PropDelay: rtt / 4, BufferBytes: buf},
			{CapacityBps: capBps * 5, PropDelay: rtt / 8, BufferBytes: 4 << 20},
		},
	}
}

func TestPublicAPIPredictionCycle(t *testing.T) {
	path := tcppred.NewTestbedPath(demoSpec(10e6, 0.06), 0.3, 42)
	m := path.Measure(15)
	if m.RTT <= 0 {
		t.Fatal("no RTT measured")
	}
	if m.AvailBw <= 0 {
		t.Fatal("no avail-bw estimate")
	}
	fb := tcppred.NewFBPredictor(tcppred.FBConfig{Model: tcppred.PFTK})
	pred := fb.Predict(m.FBInputs())
	actual := path.Transfer(15, 1<<20)
	if actual <= 0 {
		t.Fatal("transfer failed")
	}
	ratio := pred / actual
	t.Logf("measured T̂=%.1fms p̂=%.4f Â=%.2fMbps → pred %.2f vs actual %.2f Mbps",
		m.RTT*1e3, m.LossRate, m.AvailBw/1e6, pred/1e6, actual/1e6)
	if ratio < 0.05 || ratio > 20 {
		t.Errorf("FB prediction off by %.1fx", ratio)
	}
}

func TestPublicAPIHBWorkflow(t *testing.T) {
	path := tcppred.NewTestbedPath(demoSpec(8e6, 0.05), 0.3, 7)
	hb := tcppred.WithLSO(tcppred.NewHoltWinters(0.8, 0.2))
	var lastErr float64
	for i := 0; i < 6; i++ {
		pred, ok := hb.Predict()
		actual := path.Transfer(10, 1<<20)
		if ok {
			lastErr = math.Abs(pred-actual) / actual
		}
		hb.Observe(actual)
		path.Wait(5)
	}
	if lastErr > 0.6 {
		t.Errorf("HB error %.2f after 6 transfers on a steady path", lastErr)
	}
}

func TestPublicAPITransferBytes(t *testing.T) {
	path := tcppred.NewTestbedPath(demoSpec(10e6, 0.04), 0, 3)
	bps, secs := path.TransferBytes(1<<20, 1<<20)
	if bps <= 0 || secs <= 0 {
		t.Fatalf("TransferBytes = %v bps, %v s", bps, secs)
	}
	if secs > 10 {
		t.Errorf("1 MB on idle 10 Mbps path took %.1f s", secs)
	}
}

func TestPublicAPIWindowLimited(t *testing.T) {
	path := tcppred.NewTestbedPath(demoSpec(50e6, 0.08), 0, 5)
	small := path.Transfer(10, 20*1024)
	expect := 20 * 1024 * 8 / 0.08
	if small > expect*1.3 {
		t.Errorf("window-limited transfer %.2f Mbps above W/RTT %.2f", small/1e6, expect/1e6)
	}
}

func TestPublicAPIClockAndString(t *testing.T) {
	path := tcppred.NewTestbedPath(demoSpec(10e6, 0.04), 0, 1)
	before := path.Now()
	path.Wait(3)
	if path.Now()-before != 3 {
		t.Errorf("Wait advanced %v, want 3", path.Now()-before)
	}
	if !strings.Contains(path.String(), "10.0 Mbps") {
		t.Errorf("String() = %q", path.String())
	}
}

func TestPublicAPIPredictorNames(t *testing.T) {
	cases := map[string]tcppred.HBPredictor{
		"10-MA":      tcppred.NewMovingAverage(10),
		"0.8-EWMA":   tcppred.NewEWMA(0.8),
		"0.8-HW":     tcppred.NewHoltWinters(0.8, 0.2),
		"0.8-HW-LSO": tcppred.WithLSO(tcppred.NewHoltWinters(0.8, 0.2)),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func TestPublicAPIShortTransferThroughput(t *testing.T) {
	small := tcppred.ShortTransferThroughput(16<<10, 0.08, 0.005, 1<<20)
	big := tcppred.ShortTransferThroughput(64<<20, 0.08, 0.005, 1<<20)
	if small <= 0 || big <= 0 {
		t.Fatalf("throughputs %v, %v", small, big)
	}
	if small >= big {
		t.Errorf("short transfer (%v) should average slower than long (%v)", small, big)
	}
	fb := tcppred.NewFBPredictor(tcppred.FBConfig{Model: tcppred.PFTK})
	bulk := fb.Predict(tcppred.FBInputs{RTT: 0.08, LossRate: 0.005})
	if math.Abs(big-bulk)/bulk > 0.15 {
		t.Errorf("long-transfer model %v should converge to bulk PFTK %v", big, bulk)
	}
}
