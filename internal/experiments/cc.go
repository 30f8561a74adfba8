package experiments

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/testbed"
)

// ccCell is one (sender × link) scenario of the matrix.
type ccCell struct {
	cc   string
	link string
}

// ccCellOrder returns the canonical presentation order: link-major, with
// the sender axis in reno, cubic, bbr order — so each link's block reads
// as "how does the same substrate respond as the sender modernizes".
func ccCellOrder() []ccCell {
	var out []ccCell
	for _, link := range testbed.DefaultLinks() {
		for _, cc := range testbed.DefaultSenders() {
			out = append(out, ccCell{cc: string(cc), link: string(link)})
		}
	}
	return out
}

// ExtCC scores every predictor family across the (sender × link)
// scenario matrix of a scenario dataset (collected with ronsim
// -scenarios). The per-trace protocol is ExtZoo's: each family sees the
// same epoch stream — pre-flow measurements, then the achieved
// throughput — and is scored on RMSRE with training online.
//
// The experiment exists to answer one question the paper could not ask
// in 2005: the FB predictor encodes Reno's loss response (throughput ~
// MSS/(RTT·√p) with an RTO correction), so what happens when the sender
// is CUBIC (growth detached from RTT) or BBR (throughput detached from p
// entirely)? History-based families never look inside the sender, so
// they provide the control group.
func ExtCC(ds *testbed.Dataset) Result {
	// The same zoo ExtZoo runs on the primary dataset, so the
	// Reno/droptail cell is directly comparable to the paper-regime numbers.
	families, idxFB := zooFamilies()
	n := len(families)
	// Per-cell, per-family slices of per-trace RMSREs.
	rmsres := make(map[ccCell][][]float64)
	traces := make(map[ccCell]int)

	for _, tr := range ds.Traces {
		if len(tr.Records) < 5 {
			continue
		}
		cell := ccCell{cc: tr.Records[0].CC, link: tr.Records[0].Link}
		if cell.cc == "" || cell.link == "" {
			continue // not a scenario trace
		}
		if rmsres[cell] == nil {
			rmsres[cell] = make([][]float64, n)
		}
		traces[cell]++
		errs := zooErrors(tr, nil)
		for i := 0; i < n; i++ {
			if len(errs[i]) == 0 {
				continue
			}
			v := stats.RMSRE(errs[i])
			rmsres[cell][i] = append(rmsres[cell][i], v)
		}
	}

	matrix := Table{
		Title:   "median per-trace RMSRE by (sender × link) scenario",
		Columns: append([]string{"scenario", "traces", "best"}, families...),
	}
	fbByLink := map[string]map[string]float64{} // link → cc → FB median RMSRE
	for _, cell := range ccCellOrder() {
		per := rmsres[cell]
		if per == nil {
			continue
		}
		row := []string{cell.cc + "/" + cell.link, fmt.Sprintf("%d", traces[cell])}
		best, bestV := "-", math.Inf(1)
		vals := make([]string, 0, n)
		for i := 0; i < n; i++ {
			if len(per[i]) == 0 {
				vals = append(vals, "-")
				continue
			}
			v := stats.Median(per[i])
			vals = append(vals, fmt.Sprintf("%.2f", v))
			if v < bestV {
				best, bestV = families[i], v
			}
		}
		row = append(row, best)
		row = append(row, vals...)
		matrix.Rows = append(matrix.Rows, row)
		if len(per[idxFB]) > 0 {
			if fbByLink[cell.link] == nil {
				fbByLink[cell.link] = map[string]float64{}
			}
			fbByLink[cell.link][cell.cc] = stats.Median(per[idxFB])
		}
	}

	// FB degradation: per link, the ratio of FB's median RMSRE under
	// CUBIC/BBR to its Reno baseline on the identical substrate.
	degrade := Table{
		Title:   "FB median RMSRE vs the Reno baseline on the same substrate",
		Columns: []string{"link", "reno", "cubic", "bbr", "cubic/reno", "bbr/reno"},
	}
	for _, link := range testbed.DefaultLinks() {
		m := fbByLink[string(link)]
		if m == nil {
			continue
		}
		ratio := func(cc string) string {
			v, ok := m[cc]
			if !ok {
				return "-"
			}
			if cc == "reno" || m["reno"] <= 0 {
				return fmt.Sprintf("%.2f", v)
			}
			return fmt.Sprintf("%.2fx", v/m["reno"])
		}
		degrade.Rows = append(degrade.Rows, []string{
			string(link),
			fmt.Sprintf("%.2f", m["reno"]),
			fmt.Sprintf("%.2f", m["cubic"]),
			fmt.Sprintf("%.2f", m["bbr"]),
			ratio("cubic"),
			ratio("bbr"),
		})
	}

	return Result{
		ID:    "ext-cc",
		Title: "Extension: predictor zoo across the CC × link scenario matrix",
		Notes: []string{
			"scenario paths share their substrate across senders: cc-<sender>-<link>-p<i> differ only in the congestion control;",
			"FB encodes Reno's loss response, so its error under cubic/bbr isolates formula-model mismatch;",
			"history-based families (MA/EWMA/HW/switcher) never inspect the sender and act as the control group",
		},
		Tables: []Table{matrix, degrade},
	}
}
