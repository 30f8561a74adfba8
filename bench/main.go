// Command bench is the repository's benchmark: one command that builds
// ronsim and predserverd from the checkout, runs five workloads against the
// real binaries as child processes, verifies their outputs, and prints
// every metric by name with unit, sample count and regression bound.
//
//	go run -C bench . --workload svc-single --seed 1 --seconds 10 --trace 0
//
// is the form the driver uses (BENCHMARK.json): one workload, one run, the
// last stdout line a JSON object with the end-to-end metrics (--trace 0) or
// the per-layer metrics of the traced pass (--trace 1). Without --workload
// the whole suite runs; -aa N repeats it N times on the same build, each
// time on another seed, and judges every end-to-end metric's spread against
// its bound; -baseline records bench/baseline.json. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's JSON line (default: the whole suite)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 0, "length of the timed section of one run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced pass (per-layer metrics), 0 = untraced (end-to-end metrics)")
		aa       = flag.Int("aa", 0, "run the whole suite N times on one build, seeds seed..seed+N-1, and report spread ÷ bound per metric (0 = off; 3 is a sensible N)")
		baseline = flag.Bool("baseline", false, "measure every metric on seeds 1 and 2 and write bench/baseline.json")
		pin      = flag.Bool("pin", false, "record the campaign digests of seeds 1 and 2 into bench/expected/ instead of checking them")
	)
	flag.Parse()
	installSignalCleanup()
	exit(run(options{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0,
		aa: *aa, baseline: *baseline, pin: *pin}))
}

// options are the parsed command-line flags.
type options struct {
	workload      string
	seed          int64
	seconds       int
	traced        bool
	aa            int
	baseline, pin bool
}

func run(o options) int {
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	workload, seed, seconds := o.workload, o.seed, o.seconds
	if seconds == 0 {
		seconds = spec.RunSeconds
	}
	if seconds < 1 || seconds > 120 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be in [1, 120]")
		return 2
	}
	if workload != "" && !spec.hasWorkload(workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
		return 2
	}
	scratchBase = filepath.Join(root, "bench", "out", "tmp")
	bins, err := buildBinaries(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "bench: built ronsim and predserverd in %.2fs (bench.build_s)\n", bins.BuildS)
	env := &environment{root: root, spec: spec, bins: bins, expectedDir: filepath.Join(root, "bench", "expected")}
	ctx := context.Background()

	switch {
	case o.pin:
		return pinDigests(ctx, env, seconds)
	case o.baseline:
		return writeBaseline(ctx, env, seconds)
	case o.aa > 0:
		return runAA(ctx, env, o.aa, seed, seconds)
	case workload != "":
		res, err := runWorkload(ctx, env, workload, seed, seconds, o.traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
			return 1
		}
		res.print(stdout)
		if miss := res.missing(); len(miss) > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: metrics not produced: %v\n", workload, miss)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", res.contractLine())
		if !res.correct() {
			return 1
		}
		return 0
	default:
		return runSuite(ctx, env, seed, seconds, o.traced)
	}
}

// environment is what every workload run needs from the outside.
type environment struct {
	root        string
	spec        *benchSpec
	bins        *binaries
	expectedDir string
}

// runWorkload runs one workload once, traced or untraced.
func runWorkload(ctx context.Context, env *environment, name string, seed int64, seconds int, traced bool) (*result, error) {
	start := time.Now()
	var res *result
	var err error
	if w, ok := svcWorkloads[name]; ok {
		if traced {
			res, err = traceSvc(ctx, w, env, seed, seconds)
		} else {
			res, err = runSvc(ctx, w, env, seed, seconds)
		}
	} else if w, ok := campaignWorkloads[name]; ok {
		if traced {
			res, err = traceCampaign(ctx, w, env, seed, seconds)
		} else {
			res, err = runCampaign(ctx, w, env, seed, seconds)
		}
	} else {
		return nil, fmt.Errorf("workload %q has no runner", name)
	}
	if err != nil {
		return nil, err
	}
	res.note("run took %.1fs wall in total", time.Since(start).Seconds())
	return res, nil
}

// runSuite runs all five workloads once (and their traced passes when
// asked), printing each report; it is the "one command" of the README.
func runSuite(ctx context.Context, env *environment, seed int64, seconds int, traced bool) int {
	code := 0
	for _, w := range env.spec.Workloads {
		modes := []bool{false}
		if traced {
			modes = append(modes, true)
		}
		for _, tr := range modes {
			res, err := runWorkload(ctx, env, w.Name, seed, seconds, tr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
				code = 1
				continue
			}
			res.print(stdout)
			if !res.correct() || len(res.missing()) > 0 {
				code = 1
			}
		}
	}
	if code == 0 {
		fmt.Fprintln(stdout, "bench: all workloads correct")
	} else {
		fmt.Fprintln(stdout, "bench: FAILED (see checks above)")
	}
	return code
}
