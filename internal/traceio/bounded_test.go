package traceio_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/testbed"
	"repro/internal/traceio"
)

// heapCap is the pinned ceiling for the streaming campaign: the whole
// 10k-trace dataset is several times larger than this, so staying under
// it proves the pipeline holds only in-flight traces.
const heapCap = 64 << 20

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// fabricateTrace builds a synthetic trace with the full per-epoch record
// shape — cheap enough to make 10k of them, big enough that retaining
// them all would blow the heap cap.
func fabricateTrace(job campaign.Job, epochs int) testbed.Trace {
	tr := testbed.Trace{Path: job.Path, Class: "synthetic", Index: job.Trace}
	tr.Records = make([]testbed.EpochRecord, epochs)
	for e := range tr.Records {
		f := float64(job.Index*epochs + e)
		tr.Records[e] = testbed.EpochRecord{
			Path: job.Path, Class: "synthetic", Epoch: e,
			AvailBw: 5e6 + f, PreRTT: 0.05, PreLoss: 0.001,
			Throughput: 3e6 + f, FlowRTT: 0.06, FlowLoss: 0.002,
			SmallThroughput: 1e6 + f, SmallWindowBytes: 20480,
			Checkpoints: []float64{1e6 + f, 2e6 + f},
		}
	}
	return tr
}

// TestStreamingCampaignBoundedRSS is the tentpole's memory pin: a
// 10k-path campaign streamed through the campaign sink into a
// traceio.Writer, with the live heap checked against a 64 MiB cap the
// materialized dataset would far exceed — then the file is read back
// trace-at-a-time under the same cap and spot-checked for order and
// completeness (the form cmd/repro loads).
func TestStreamingCampaignBoundedRSS(t *testing.T) {
	paths, epochs := 10000, 40
	if testing.Short() {
		paths, epochs = 2000, 40
	}

	file := filepath.Join(t.TempDir(), "campaign.json")
	w, err := traceio.NewWriter(file, "bounded")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]campaign.Job, paths)
	for i := range jobs {
		jobs[i] = campaign.Job{Index: i, Path: fmt.Sprintf("path-%05d", i), Epochs: epochs}
	}
	var peak uint64
	var sinkErr error
	r := &campaign.Runner[testbed.Trace]{
		Parallelism: 8,
		Sink: func(res campaign.Result[testbed.Trace]) {
			if sinkErr != nil {
				return
			}
			if res.Err != nil {
				sinkErr = res.Err
				return
			}
			if err := w.WriteTrace(res.Value); err != nil {
				sinkErr = err
				return
			}
			if res.Job.Index%1000 == 999 {
				if h := liveHeap(); h > peak {
					peak = h
				}
			}
		},
	}
	if err := r.Run(context.Background(), jobs, func(ctx context.Context, job campaign.Job, rep *campaign.Reporter) (testbed.Trace, error) {
		return fabricateTrace(job, epochs), nil
	}); err != nil {
		t.Fatal(err)
	}
	if sinkErr != nil {
		t.Fatal(sinkErr)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if peak > heapCap {
		t.Fatalf("write-side live heap peaked at %d MiB, cap %d MiB", peak>>20, heapCap>>20)
	}
	t.Logf("write-side peak live heap: %.1f MiB for %d traces", float64(peak)/(1<<20), paths)

	rd, err := traceio.NewReader(file)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	n, totalEpochs := 0, 0
	for {
		tr, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("path-%05d", n); tr.Path != want {
			t.Fatalf("trace %d is %q, want %q: stream out of order", n, tr.Path, want)
		}
		if len(tr.Records) != epochs {
			t.Fatalf("trace %d has %d epochs, want %d", n, len(tr.Records), epochs)
		}
		totalEpochs += len(tr.Records)
		n++
		if n%2500 == 0 {
			if h := liveHeap(); h > heapCap {
				t.Fatalf("read-side live heap %d MiB at trace %d, cap %d MiB", h>>20, n, heapCap>>20)
			}
		}
	}
	if n != paths || totalEpochs != paths*epochs {
		t.Fatalf("read back %d traces/%d epochs, want %d/%d", n, totalEpochs, paths, paths*epochs)
	}
}
