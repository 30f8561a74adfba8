// Serving example: run the prediction service in-process, feed it a
// simulated path's measurement loop over HTTP — exactly what an overlay
// router or replica selector would do — and watch the service converge on
// the best predictor for the path.
//
//	go run ./examples/predsvc
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	tcppred "repro"
)

func main() {
	// Start the prediction server on an ephemeral port, shut it down
	// gracefully at the end by cancelling the context.
	srv := tcppred.NewPredictionServer(tcppred.ServiceConfig{Capacity: 64})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("prediction service on", base)

	// A 10 Mbps path with 35% cross traffic stands in for a real route.
	spec := tcppred.PathSpec{
		Name: "svc-demo",
		Forward: []tcppred.Hop{
			{CapacityBps: 50e6, PropDelay: 0.005, BufferBytes: 4 << 20},
			{CapacityBps: 10e6, PropDelay: 0.02, BufferBytes: 96 * 1500},
		},
	}
	path := tcppred.NewTestbedPath(spec, 0.35, 42)

	// The serving loop of the paper's Fig. 1, over HTTP: measure → ask the
	// service → transfer → report back.
	for epoch := 0; epoch < 8; epoch++ {
		m := path.Measure(5)
		post(base+"/v1/measure", map[string]any{
			"path": "svc-demo", "rtt_s": m.RTT, "loss_rate": m.LossRate, "avail_bw_bps": m.AvailBw,
		})

		var pred tcppred.Prediction
		if epoch > 0 {
			get(base+"/v1/predict?path=svc-demo", &pred)
		}

		actual := path.Transfer(8, 1<<20)
		post(base+"/v1/observe", map[string]any{
			"path": "svc-demo", "throughput_bps": actual,
		})

		if pred.Best != "" {
			fmt.Printf("epoch %d: best=%s forecast %.2f Mbps, actual %.2f Mbps\n",
				epoch, pred.Best, pred.BestForecastBps/1e6, actual/1e6)
		} else {
			fmt.Printf("epoch %d: warming up, actual %.2f Mbps\n", epoch, actual/1e6)
		}
		path.Wait(5)
	}

	// Ask once more with full history, then shut down.
	var final tcppred.Prediction
	get(base+"/v1/predict?path=svc-demo", &final)
	fmt.Printf("final: best=%s (rolling RMSRE per predictor:", final.Best)
	for _, st := range final.Families {
		fmt.Printf(" %s=%.3f", st.Name, st.RMSRE)
	}
	fmt.Println(")")

	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
}

func post(url string, body map[string]any) {
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
