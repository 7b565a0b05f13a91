// Command pdpsbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed time and prints its metrics; the
// last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end ones, measured with no instrumentation installed; with
// -trace 1 the run measures the workload untraced for half the time and
// traced for the other half, and reports the per-layer metrics of the
// traced half together with the tracing overhead and the share of time
// no layer span covers. README.md lists the workloads, the metrics and
// which end-to-end metric each per-layer metric should move.
//
// Usage (from the repository root, via the build script):
//
//	bash perfbench/run.sh --workload batch-durable --seed 3 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// metric is one reported figure with the number of samples behind it.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// outcome is what one measured phase of a workload produced.
type outcome struct {
	attempted, failed int
	// checkErr is the first output-check failure; the run is then
	// reported incorrect.
	checkErr error
	// e2e holds the generic end-to-end metrics every workload reports;
	// named holds the same figures, and the workload's others, under the
	// names README.md defines for that workload.
	e2e   map[string]metric
	named map[string]metric
	// layers holds the per-layer metrics (traced phases only).
	layers map[string]metric
}

// workload runs rounds of one workload until the budget is spent. A
// non-nil tracer installs the seam wrappers and records spans. The
// same seed yields the same inputs, round by round.
type workload func(seed int64, budget time.Duration, tr *tracer, dataDir string) (*outcome, error)

var workloads = map[string]workload{
	"tenant-stream": runTenantStream,
	"batch-durable": runBatchDurable,
	"repl-verify":   runReplVerify,
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "throughput_per_s", "completion_ms", "tail_ms", "retained_heap_mb"}

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit status so that
// deferred clean-up runs first.
func run() int {
	var (
		name       = flag.String("workload", "", "workload: tenant-stream, batch-durable or repl-verify")
		seed       = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds    = flag.Int("seconds", 25, "measurement time in seconds")
		traced     = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		out        = flag.String("out", ".bench_build/perfbench", "directory for storage data and span dumps")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "pdpsbench: need -workload tenant-stream|batch-durable|repl-verify, -seconds >= 1, -trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}
	dataDir, err := os.MkdirTemp(*out, "data-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dataDir)
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	budget := time.Duration(*seconds) * time.Second
	var res, base *outcome
	var tr *tracer
	if *traced == 0 {
		res, err = wl(*seed, budget, nil, dataDir)
	} else {
		base, err = wl(*seed, budget/2, nil, dataDir)
		if err == nil {
			tr = newTracer()
			res, err = wl(*seed, budget/2, tr, dataDir)
		}
	}
	if err != nil {
		return fail(err)
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			return fail(err)
		}
	}

	attempted, failed, checkErr := res.attempted, res.failed, res.checkErr
	if base != nil {
		attempted += base.attempted
		failed += base.failed
		if checkErr == nil {
			checkErr = base.checkErr
		}
	}
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed\n", *name, *seed, attempted, failed)
	if checkErr != nil {
		fmt.Printf("output check FAILED: %v\n", checkErr)
	} else {
		fmt.Println("output check passed")
	}
	printMetrics("end-to-end", res.e2e)
	printMetrics(*name, res.named)

	metrics := map[string]metric{}
	if tr == nil {
		for _, k := range endToEnd {
			metrics[k] = res.e2e[k]
		}
	} else {
		addSpanMetrics(res, base, tr)
		fillLayers(res.layers)
		printMetrics("per-layer", res.layers)
		metrics = res.layers
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := tr.writeJSONL(path); err != nil {
			return fail(err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	type jmetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	jm := map[string]jmetric{}
	for k, m := range metrics {
		jm[k] = jmetric{m.Value, m.Unit}
	}
	correct := checkErr == nil && failed == 0
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]jmetric `json:"metrics"`
	}{correct, attempted, failed, jm})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// addSpanMetrics derives the span-based figures of a traced run: each
// layer's self time, the unattributed remainder (the "bench" layer's
// self time: window time no layer span covers) and the tracing
// overhead (how much longer the traced phase took per unit of work than
// the untraced phase of the same run).
func addSpanMetrics(res, base *outcome, tr *tracer) {
	self := tr.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Println("span self time by layer:")
	for _, l := range layers {
		fmt.Printf("  %-10s %10.1f ms  %5.1f%%\n", l, ms(self[l]), 100*ratio(float64(self[l]), float64(total)))
	}
	window := time.Duration(0)
	for _, d := range tr.durations("bench.window") {
		window += time.Duration(d)
	}
	res.layers["spans.unattributed_share"] = metric{ratio(float64(self["bench"]), float64(window)), "ratio", 1}
	overhead := ratio(base.e2e["throughput_per_s"].Value, res.e2e["throughput_per_s"].Value) - 1
	res.layers["spans.overhead_share"] = metric{overhead, "ratio", 1}
	fmt.Printf("tracing overhead %.1f%% (untraced %.1f/s, traced %.1f/s); unattributed %.1f%% of window time\n",
		100*overhead, base.e2e["throughput_per_s"].Value, res.e2e["throughput_per_s"].Value,
		100*res.layers["spans.unattributed_share"].Value)
}

func printMetrics(title string, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s metrics:\n", title)
	for _, k := range keys {
		fmt.Printf("  %-36s %14.4f %-6s n=%d\n", k, m[k].Value, m[k].Unit, m[k].N)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail reports an error that stopped the run; no result line is
// printed.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "pdpsbench: %v\n", err)
	return 1
}
