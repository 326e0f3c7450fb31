// Command bench is the repository's benchmark (BENCHMARK.json): six named
// workloads over the serve path and the offline pipeline, nine end-to-end
// metrics with tracing off, and with --trace 1 a per-layer ledger that must
// reconcile with them. One process hosts the servers and the load
// generator; every layer is measured from outside, through public functions,
// the ?trace=1 response field and /v1/metrics deltas. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit; BENCHMARK.json lists the
// same names and units (checked by TestBenchmarkJSONMatchesCode).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"slo_ok_frac", "frac"},
	{"correct_frac", "frac"},
	{"pipeline_s", "s"},
	{"heldout_mape", "frac"},
	{"live_heap_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the fuller account written under the output directory: the
// result plus what it was measured on.
type record struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Seed       int64          `json:"seed"`
	WindowS    float64        `json:"window_s"`
	Clients    int            `json:"clients"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Commit     string         `json:"commit"`
	Failures   map[string]int `json:"failures_by_kind"`
	Notes      map[string]any `json:"notes"`
	Result     result         `json:"result"`
}

// commit reads the revision the toolchain stamped into the binary; a
// checkout that is not a git repository has none.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func run() error {
	workload := flag.String("workload", "", "one of warm_zoo, cold_custom, batch_churn, gateway_routed, open_mixed, offline_fit")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	outDir := flag.String("out", "bench/out", "directory for the run record and trace.jsonl")
	flag.Parse()

	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	if !known {
		return fmt.Errorf("unknown --workload %q; want one of %v", *workload, workloadNames)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// Two clients and a server on one core measure the scheduler, and the
	// committed artifacts this replaces all say num_cpu: 1.
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("refusing to report: nproc is %d, the benchmark needs at least 2", runtime.NumCPU())
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	window := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()

	var o *outcome
	var err error
	defs := endToEnd
	switch {
	case *trace != 0:
		defs = perLayer
		o, err = runTraced(ctx, fullScale, *workload, *seed, window, filepath.Join(*outDir, "trace.jsonl"))
	case *workload == wlOffline:
		o, err = runOffline(fullScale, *seed, window)
	default:
		o, err = runServing(ctx, fullScale, *workload, *seed, window)
	}
	if err != nil {
		return err
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-32s %16.6f %s\n", d.name, v, d.unit)
	}
	rec := record{
		Workload: *workload, Trace: *trace != 0, Seed: *seed, WindowS: *seconds, Clients: clients,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Failures: o.failures, Notes: o.notes, Result: res,
	}
	keys := make([]string, 0, len(o.notes))
	for k := range o.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-32s %v\n", k, o.notes[k])
	}
	fmt.Printf("nproc %d GOMAXPROCS %d %s commit %s seed %d clients %d window %gs failures %v\n",
		rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.Commit, rec.Seed, rec.Clients, rec.WindowS, rec.Failures)
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d-seed%d.json", *workload, *trace, *seed)
	if err := os.WriteFile(filepath.Join(*outDir, name), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
