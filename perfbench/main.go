// Command perfbench is the repository's benchmark. One invocation runs one
// named workload, checks its outputs and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics.
//
//	bash perfbench/run.sh --workload table2 --seed 2003 --seconds 30 --trace 0
//
// With --trace 0 it times the workload end to end (setup_s, sweep_s,
// cpu_s, peak_rss_mb, rerun_s). With --trace 1 it runs the workload once
// untraced and then again through timing wrappers around each layer's
// public entry points, and prints the per-layer metrics. README.md lists
// the workloads, the metrics and which layer metric should move which
// end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the sweep seed of the repository's published results
// (experiment.ReducedGrid().BaseSeed); reference.json pins the output
// digests for it.
const defaultSeed = 2003

// maxProcs caps GOMAXPROCS: the sweeps run one simulation worker, and the
// second processor absorbs the garbage collector and, on fleet, the
// coordinator's HTTP handling.
const maxProcs = 2

// runBudget bounds one invocation; sweeps still running when it lapses are
// cancelled and count as failed.
const runBudget = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations: sweep cells compared against their
// reference, and HTTP round trips on fleet.
type tally struct{ attempted, failed int64 }

func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

func (t *tally) fail(n int64) {
	t.attempted += n
	t.failed += n
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", defaultSeed, "sweep seed; the pinned digests are checked only for the default")
	seconds := flag.Float64("seconds", 55, "how long the timed sweeps may run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed one")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Caches and checkpoints live under the checkout's build directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	wl := mk(*seed)
	pinned := ref.pinned(*name, *seed)
	printInfo("env", environment(*name, *seed, *traced == 1))
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var rep report
	if *traced == 1 {
		rep, err = tracedRun(ctx, wl, pinned, dir)
	} else {
		rep, err = timedRun(ctx, wl, pinned, dir, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printInfo writes one "# key {json}" line of context to standard output;
// the result is always the last line.
func printInfo(key string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", fmt.Sprint(v)))
	}
	fmt.Printf("# %s %s\n", key, b)
}

// environment records what a result depends on besides the code, so a
// run on a busier or different machine can be spotted.
func environment(name string, seed uint64, traced bool) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"loadavg":    loadAvg(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(data))[:3], " ")
}
