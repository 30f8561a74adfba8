package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat. Linux
// fixes USER_HZ at 100 for every architecture Go supports.
const userHZ = 100

// procTimes is the CPU a process has consumed so far.
type procTimes struct {
	User, Sys time.Duration
}

// micros and millis render a duration as a float in the metric's unit.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (a procTimes) sub(b procTimes) procTimes {
	return procTimes{User: a.User - b.User, Sys: a.Sys - b.Sys}
}

// parseProcStat extracts utime and stime from the contents of
// /proc/<pid>/stat. The comm field may itself contain spaces and
// parentheses, so fields are counted from the LAST ')'.
func parseProcStat(data []byte) (procTimes, error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return procTimes{}, errors.New("proc stat: no comm field")
	}
	// After ")" come state(3) ppid(4) ... utime(14) stime(15).
	fields := strings.Fields(string(data[end+1:]))
	if len(fields) < 13 {
		return procTimes{}, fmt.Errorf("proc stat: %d fields after comm, want ≥ 13", len(fields))
	}
	ut, err1 := strconv.ParseUint(fields[11], 10, 64)
	st, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procTimes{}, fmt.Errorf("proc stat: bad utime/stime %q %q", fields[11], fields[12])
	}
	tick := time.Second / userHZ
	return procTimes{User: time.Duration(ut) * tick, Sys: time.Duration(st) * tick}, nil
}

func readProcTimes(pid int) (procTimes, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procTimes{}, err
	}
	return parseProcStat(data)
}

// parseStatusField returns the leading integer of a "Key:  123 [kB]" line
// of a /proc status file: kibibytes for the Vm* fields, a plain count for
// the context-switch fields.
func parseStatusField(data []byte, key string) (int64, bool) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0, false
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		return v, err == nil
	}
	return 0, false
}

// procStatus is what the harness reads from /proc/<pid>/status and the
// per-thread status files beneath it.
type procStatus struct {
	PeakRSSKB int64 // VmHWM of the process
	CtxSw     int64 // voluntary + involuntary, summed over live threads
}

func readProcStatus(pid int) (procStatus, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStatus{}, err
	}
	var st procStatus
	st.PeakRSSKB, _ = parseStatusField(data, "VmHWM")
	// The context-switch counters in status are per thread, so walk the
	// task directory; a Go daemon does its work on several threads.
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	for _, t := range tasks {
		td, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		v, _ := parseStatusField(td, "voluntary_ctxt_switches")
		n, _ := parseStatusField(td, "nonvoluntary_ctxt_switches")
		st.CtxSw += v + n
	}
	return st, nil
}

// hostSample is a reading of host-wide contention: cumulative steal and
// total jiffies from the first line of /proc/stat, and the 1-minute load.
type hostSample struct {
	Steal, Total uint64
	Load1        float64
}

// parseHostStat parses the aggregate "cpu" line of /proc/stat.
func parseHostStat(data []byte) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("host stat: no aggregate cpu line")
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already included in user, so stop at steal.
	for i, s := range f[1:9] {
		v, perr := strconv.ParseUint(s, 10, 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("host stat: field %d: %v", i+1, perr)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

func readHost() hostSample {
	var h hostSample
	if data, err := os.ReadFile("/proc/stat"); err == nil {
		h.Steal, h.Total, _ = parseHostStat(data)
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// stealFrac is the share of all CPU time between two samples that the
// hypervisor gave to someone else.
func stealFrac(a, b hostSample) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// heapFooter is the runtime.MemStats block that ends the text form of the
// heap profile (/debug/pprof/heap?debug=1). It is the one way to read a
// foreign Go process's allocation counters without touching its code.
type heapFooter struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint64
	PauseNs    []uint64 // circular, most recent at (NumGC+255)%256
	// GCCPUFraction is the share of the CPU available to the process
	// (GOMAXPROCS × uptime) that the collector has used since it started.
	GCCPUFraction float64
}

// parseHeapFooter reads the "# Key = value" lines of a debug=1 heap profile.
func parseHeapFooter(data []byte) (heapFooter, error) {
	var h heapFooter
	seen := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "# ")
		if !ok {
			continue
		}
		key, val, ok := strings.Cut(rest, " = ")
		if !ok {
			continue
		}
		var dst *uint64
		switch key {
		case "Mallocs":
			dst = &h.Mallocs
		case "TotalAlloc":
			dst = &h.TotalAlloc
		case "NumGC":
			dst = &h.NumGC
		case "GCCPUFraction":
			f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return h, fmt.Errorf("heap footer: GCCPUFraction = %q", val)
			}
			h.GCCPUFraction = f
			continue
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				v, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return h, fmt.Errorf("heap footer: PauseNs entry %q", f)
				}
				h.PauseNs = append(h.PauseNs, v)
			}
			continue
		default:
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return h, fmt.Errorf("heap footer: %s = %q", key, val)
		}
		*dst = v
		seen++
	}
	if seen < 3 {
		return h, fmt.Errorf("heap footer: found %d of 3 counters", seen)
	}
	return h, nil
}

// gcCPUBetween estimates the CPU the collector used between two footers
// read at the given process uptimes: GCCPUFraction × GOMAXPROCS × uptime is
// the collector's cumulative CPU, so the difference of two such products
// is what it used in between.
func gcCPUBetween(before, after heapFooter, uptimeBefore, uptimeAfter time.Duration, procs int) time.Duration {
	d := after.GCCPUFraction*float64(uptimeAfter) - before.GCCPUFraction*float64(uptimeBefore)
	return time.Duration(max(d, 0) * float64(procs))
}

// gcPauseBetween sums the stop-the-world pauses of the collections that ran
// between two footers, as far as the 256-entry ring still holds them; when
// more than 256 ran, the retained ones are scaled up.
func gcPauseBetween(before, after heapFooter) time.Duration {
	n := after.NumGC - before.NumGC
	if n == 0 || len(after.PauseNs) == 0 {
		return 0
	}
	ring := uint64(len(after.PauseNs))
	take := n
	if take > ring {
		take = ring
	}
	var sum uint64
	for i := uint64(0); i < take; i++ {
		sum += after.PauseNs[(after.NumGC-1-i)%ring]
	}
	return time.Duration(float64(sum) * float64(n) / float64(take))
}

// ---------------------------------------------------------------------
// Child processes.
//
// Every child the harness starts is registered here and is killed and
// reaped on every exit path: normal return, a failed check, a signal, and
// a closed stdout (SIGPIPE is turned into an ordinary shutdown). As a
// backstop the kernel kills children when the spawning thread dies
// (Pdeathsig); that only works if the spawning thread outlives the
// children, so one goroutine locked to its OS thread does all the
// spawning for the life of the process.

type child struct {
	cmd *exec.Cmd
	// stderr is the read end of the child's standard error. It is a pipe
	// of the harness's own, not cmd.StderrPipe: Wait closes that one when
	// the child exits, losing whatever the reader had not yet consumed
	// (ronsim's last progress line), while this one reaches EOF only after
	// everything written has been read. Whoever starts a child reads it to
	// EOF, or closes it once the child has been killed.
	stderr *os.File

	mu     sync.Mutex
	done   bool
	waited chan struct{}
	err    error
}

var (
	childMu  sync.Mutex
	children = map[*child]struct{}{}

	spawnOnce sync.Once
	spawnReq  chan func()
)

// onSpawnThread runs fn on the long-lived spawner thread.
func onSpawnThread(fn func()) {
	spawnOnce.Do(func() {
		spawnReq = make(chan func())
		go func() {
			runtime.LockOSThread()
			for f := range spawnReq {
				f()
			}
		}()
	})
	done := make(chan struct{})
	spawnReq <- func() { fn(); close(done) }
	<-done
}

// startChild launches cmd in its own process group with Pdeathsig set, its
// standard error connected to c.stderr, and registers it for cleanup.
func startChild(name string, cmd *exec.Cmd) (*child, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = pw
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, stderr: pr, waited: make(chan struct{})}
	onSpawnThread(func() { err = cmd.Start() })
	pw.Close() // the child holds its own copy; ours would keep EOF from arriving
	if err != nil {
		pr.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	childMu.Lock()
	children[c] = struct{}{}
	childMu.Unlock()
	go func() {
		c.err = cmd.Wait()
		c.mu.Lock()
		c.done = true
		c.mu.Unlock()
		childMu.Lock()
		delete(children, c)
		childMu.Unlock()
		close(c.waited)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// wait blocks until the child has been reaped and returns its exit error.
func (c *child) wait() error {
	<-c.waited
	return c.err
}

// rusage returns the reaped child's resource usage (valid after wait).
func (c *child) rusage() *syscall.Rusage {
	if c.cmd.ProcessState == nil {
		return nil
	}
	ru, _ := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru
}

// stop asks the child to exit (SIGTERM), escalates to SIGKILL after grace,
// and returns once it has been reaped.
func (c *child) stop(grace time.Duration) {
	c.mu.Lock()
	done := c.done
	c.mu.Unlock()
	if !done {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.waited:
		case <-time.After(grace):
			_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
		}
	}
	<-c.waited
}

// killAllChildren is the last-resort cleanup: SIGKILL every registered
// child's process group and wait for each to be reaped.
func killAllChildren() {
	childMu.Lock()
	list := make([]*child, 0, len(children))
	for c := range children {
		list = append(list, c)
	}
	childMu.Unlock()
	for _, c := range list {
		_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	}
	for _, c := range list {
		select {
		case <-c.waited:
		case <-time.After(5 * time.Second):
		}
	}
}

// tempRoots are the per-run scratch directories to delete on exit.
// scratchBase is where they are made: bench/out/tmp inside the checkout,
// because the benchmark may read and write only there (not even $TMPDIR).
var (
	tempMu      sync.Mutex
	tempRoots   []string
	scratchBase string
)

// newTempDir creates a scratch directory under scratchBase, registered
// for removal on exit.
func newTempDir(tag string) (string, error) {
	if err := os.MkdirAll(scratchBase, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(scratchBase, tag+"-")
	if err != nil {
		return "", err
	}
	tempMu.Lock()
	tempRoots = append(tempRoots, dir)
	tempMu.Unlock()
	return dir, nil
}

// cleanup kills children and removes scratch directories. Safe to call
// more than once.
func cleanup() {
	killAllChildren()
	tempMu.Lock()
	roots := tempRoots
	tempRoots = nil
	tempMu.Unlock()
	for _, d := range roots {
		_ = os.RemoveAll(d)
	}
}

// exit cleans up and terminates with code. Only the first caller does the
// work: a closed stdout raises SIGPIPE and fails the write at the same
// time, and a second caller that found nothing left to clean must not end
// the process while the first is still removing directories.
func exit(code int) {
	exitOnce.Do(func() {
		cleanup()
		os.Exit(code)
	})
	select {}
}

var exitOnce sync.Once

// installSignalCleanup turns INT/TERM/HUP/PIPE into a clean shutdown with
// a nonzero exit code. Handling SIGPIPE matters: without it a closed
// stdout would kill the harness on its next print and orphan the children.
func installSignalCleanup() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-ch
		exit(130)
	}()
}

// stdout is the checked writer all reporting goes through: a failed write
// (closed pipe, full disk) ends the run instead of being ignored.
type checkedWriter struct{ w io.Writer }

func (c checkedWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: stdout: %v\n", err)
		exit(1)
	}
	return n, nil
}

var stdout io.Writer = checkedWriter{os.Stdout}

// ---------------------------------------------------------------------
// Building the programs under test.

// repoRoot locates the repository root: the harness lives in <root>/bench
// and is run with that directory as its working directory (go run -C bench).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, cand := range []string{filepath.Dir(wd), wd} {
		if _, err := os.Stat(filepath.Join(cand, "cmd", "ronsim", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(cand, "bench", "go.mod")); err == nil {
				return cand, nil
			}
		}
	}
	return "", fmt.Errorf("cannot find the repository root from %s (need cmd/ronsim and bench/go.mod)", wd)
}

// binaries holds the paths of the freshly built programs under test.
type binaries struct {
	Ronsim, Predserverd string
	BuildS              float64
	OutDir              string // <root>/bench/out
}

// buildBinaries compiles ronsim and predserverd from the checkout's source
// into bench/out/bin. It always runs the go tool (a no-op build is ~0.3 s)
// so a stale binary can never be measured.
func buildBinaries(root string) (*binaries, error) {
	out := filepath.Join(root, "bench", "out")
	bin := filepath.Join(out, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/ronsim", "./cmd/predserverd")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off")
	if outb, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, outb)
	}
	return &binaries{
		Ronsim:      filepath.Join(bin, "ronsim"),
		Predserverd: filepath.Join(bin, "predserverd"),
		BuildS:      time.Since(start).Seconds(),
		OutDir:      out,
	}, nil
}
