// Command lambench is the repository's benchmark: one seeded command
// that generates its inputs, trains and publishes the models, boots two
// serve replicas over one registry behind a gateway on loopback, drives
// them, checks every answer, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer split) as one JSON line.
//
// Run it from the repository root through its build script:
//
//	bash lambench/run.sh --workload large-models --seed 1 --seconds 48 --trace 0
//
// See lambench/README.md for the workloads, the metrics and what each
// layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// batchModel is the extra-trees model batch-256 is served from: trees
// fitted on trainFrac of the stencil-grid dataset.
type batchModel struct {
	trees     int
	trainFrac float64
}

// workloads differ in the batch models' working set. Each run of either
// walks the same four phases (batch-256, single-open, drift-adapt,
// learn) on the stencil-grid dataset; only batch-256's models differ.
var workloads = map[string]batchModel{
	// 300 trees on 80% of the grid: ~4.5 MiB of node table per copy,
	// two copies per replica, so traversal runs out of L3.
	"large-models": {trees: 300, trainFrac: 0.8},
	// lam-predict's defaults (100 trees, 10% training): ~0.2 MiB per
	// copy, so the whole set stays in L2 and batch-256 is dominated by
	// the wire and the hops.
	"small-models": {trees: 100, trainFrac: 0.1},
}

// scratchDir holds the run's temporary registries, inside the checkout.
const scratchDir = ".bench_build/tmp"

func main() {
	wl := flag.String("workload", "", "workload: large-models or small-models")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 48, "measured seconds, split over the four phases")
	trace := flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	flag.Parse()
	if _, ok := workloads[*wl]; !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "lambench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	host := fingerprint(*wl, *seed)
	hb, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hb)
	steal0, total0 := cpuTimes()

	rep, err := run(ctx, config{
		workload: *wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		root:     scratchDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lambench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	// On a virtual machine, CPU time the hypervisor gave to other guests
	// slows every metric alike; a run with much of it is a noisy one.
	if steal1, total1 := cpuTimes(); total1 > total0 {
		fmt.Printf("# cpu steal: %.1f%% of the host's CPU time during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	for _, e := range rep.errs {
		fmt.Println("# WRONG:", e)
	}
	out, err := json.Marshal(rep.result(*trace == 1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lambench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	root     string
	boot     bootOptions
	// phases limits the run to the named phases (all when empty); the
	// self-test uses it.
	phases []string
}

func (c config) runs(phase string) bool {
	if len(c.phases) == 0 {
		return true
	}
	for _, p := range c.phases {
		if p == phase {
			return true
		}
	}
	return false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's metrics, operation counts and wrong
// answers.
type report struct {
	e2e, layers map[string]metric
	attempted   int
	failed      int
	errs        []string
	notes       []string
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) endToEnd(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *report) layer(name, unit string, v float64)    { r.layers[name] = metric{v, unit} }

// wrong records a wrong answer or failed check: a failed operation
// that fails the run.
func (r *report) wrong(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// correct reports whether every operation succeeded and every answer
// and check was right: a transport error or an error status fails the
// run as a wrong answer does.
func (r *report) correct() bool { return len(r.errs) == 0 && r.failed == 0 }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result(traced bool) result {
	m := r.e2e
	if traced {
		m = r.layers
	}
	return result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// hostInfo fingerprints the machine and build a result came from.
type hostInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint(wl string, seed int64) hostInfo {
	h := hostInfo{
		Workload:   wl,
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		Commit:     os.Getenv("LAMBENCH_COMMIT"),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

// cpuTimes reads the steal and total CPU time, in ticks, from the
// "cpu" line of /proc/stat; both are 0 where it cannot be read.
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
