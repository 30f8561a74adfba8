// Command predctl operates a predserverd cluster.
//
//	predctl rebalance -from URL[,URL...] -to URL[,URL...]
//	predctl status -nodes URL[,URL...]
//
// rebalance drives an N→M membership change with the session-handoff
// protocol: every node of the old membership exports the sessions the
// new rendezvous map assigns elsewhere, each session is imported into
// its new owner, and only after every import succeeded is the source
// told to drop its copies. A pass that dies mid-transfer (node crash,
// network cut, injected fault) is retried from the export; imports are
// last-writer-wins on observation count, so retries converge without
// double-counting and without merging.
//
// status probes each node's /healthz, /readyz and /v1/stats and prints
// one line per node — the operator's view during a rolling restart or
// resize. A node gets 5 s for all three; one that accepts and never
// answers reads as unhealthy instead of hanging the command.
//
// Examples:
//
//	# grow 2 → 3: move only the paths the new map assigns to the new node
//	predctl rebalance -from :8455,:8456 -to :8455,:8456,:8457
//
//	# shrink 3 → 2: the leaving node exports everything it holds
//	predctl rebalance -from :8455,:8456,:8457 -to :8455,:8456
//
//	predctl status -nodes :8455,:8456,:8457
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/predsvc"
	"repro/internal/predsvc/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("predctl: ")
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch os.Args[1] {
	case "rebalance":
		rebalanceCmd(ctx, os.Args[2:])
	case "status":
		statusCmd(ctx, os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  predctl rebalance -from URL[,URL...] -to URL[,URL...]
  predctl status -nodes URL[,URL...]`)
	os.Exit(2)
}

func rebalanceCmd(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	from := fs.String("from", "", "comma-separated base URLs of the current membership")
	to := fs.String("to", "", "comma-separated base URLs of the new membership")
	fs.Parse(args)
	fromNodes, toNodes := splitNodes(*from), splitNodes(*to)
	if len(fromNodes) == 0 || len(toNodes) == 0 {
		log.Fatal("rebalance needs both -from and -to")
	}
	rep, err := predsvc.Rebalance(ctx, predsvc.RebalanceConfig{
		From: fromNodes,
		To:   toNodes,
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
}

func statusCmd(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	nodeList := fs.String("nodes", "", "comma-separated base URLs to probe")
	fs.Parse(args)
	nodes := splitNodes(*nodeList)
	if len(nodes) == 0 {
		log.Fatal("status needs -nodes")
	}
	cc := cluster.NewClient(cluster.ClientConfig{Nodes: nodes})
	exit := 0
	for _, n := range nodes {
		line, healthy := nodeStatus(ctx, cc, n)
		fmt.Println(line)
		if !healthy {
			exit = 1
		}
	}
	os.Exit(exit)
}

// nodeTimeout bounds one node's status: its health probes and its stats
// fetch together. A variable so the test can lower it.
var nodeTimeout = 5 * time.Second

// nodeStatus renders one node's status line. healthy is false unless the
// node's /healthz answered 200 within nodeTimeout.
func nodeStatus(ctx context.Context, cc *cluster.Client, node string) (line string, healthy bool) {
	ctx, cancel := context.WithTimeout(ctx, nodeTimeout)
	defer cancel()
	healthy, ready := cc.Probe(ctx, node)
	line = fmt.Sprintf("%-28s healthy=%-5v ready=%-5v", node, healthy, ready)
	if st, err := fetchStats(ctx, node); err == nil {
		line += fmt.Sprintf(" paths=%-6d draining=%-5v observations=%d",
			st.Paths, st.Draining, st.Metrics.Observations)
	}
	return line, healthy
}

func fetchStats(ctx context.Context, node string) (*predsvc.StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st predsvc.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// splitNodes parses a comma-separated node list, accepting the same bare
// host:port forms predserverd's -addr takes.
func splitNodes(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			if !strings.Contains(n, "://") {
				n = "http://" + n
			}
			out = append(out, n)
		}
	}
	return out
}
