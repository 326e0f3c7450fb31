// The -bench-embed mode: measure the GHN embed pipeline's tape-based
// reference path against the tape-free fast path on this machine and write
// the results as JSON — the BENCH_embed.json artifact `make bench` produces
// and CI uploads.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/obs"
	"predictddl/internal/tensor"
)

// benchEmbedCorpus is the zoo slice the benchmark sweeps — a spread of
// graph sizes and shapes rather than one flagship model, so the numbers
// are not dominated by a single topology.
var benchEmbedCorpus = []string{
	"squeezenet1_1",
	"resnet18",
	"resnet50",
	"vgg11",
	"mobilenet_v3_small",
}

// benchEmbedSweeps is how many passes over the corpus each variant runs
// after warmup; sized so the whole benchmark stays CI-friendly while each
// variant still records hundreds of latency observations.
const benchEmbedSweeps = 30

type embedVariantResult struct {
	// Name is reference (tape-building Forward path) or float64 (tape-free
	// fast path, bit-identical to reference). Both rows are cold embeds —
	// traversal structure built per call — which is what serving pays: the
	// engine's embedding cache answers every repeat before the GHN is asked.
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	Ops         int     `json:"ops"`
}

type embedBenchReport struct {
	GeneratedAt string               `json:"generated_at"`
	GoVersion   string               `json:"go_version"`
	NumCPU      int                  `json:"num_cpu"`
	Seed        int64                `json:"seed"`
	Corpus      []string             `json:"corpus"`
	Sweeps      int                  `json:"sweeps"`
	Variants    []embedVariantResult `json:"variants"`
	// Ratios of the reference path over the fast path — the
	// speedup/allocation-reduction acceptance numbers for this machine.
	SpeedupFloat64         float64 `json:"speedup_float64_vs_reference"`
	AllocsReductionFloat64 float64 `json:"allocs_reduction_float64_vs_reference"`
}

// runBenchEmbed benchmarks the two embed routes over the seeded corpus
// and writes the JSON report to path.
func runBenchEmbed(path string, seed int64) error {
	section(fmt.Sprintf("Embed fast-path benchmark — %d models × %d sweeps per variant", len(benchEmbedCorpus), benchEmbedSweeps))
	// Random-initialized weights are enough for a throughput benchmark:
	// the kernel cost is shape-driven, and skipping training keeps the
	// mode fast enough for CI.
	g := ghn.New(ghn.DefaultConfig(), tensor.NewRNG(seed))

	graphs := make([]*graph.Graph, len(benchEmbedCorpus))
	for i, name := range benchEmbedCorpus {
		gr, err := graph.Build(name, graph.DefaultConfig())
		if err != nil {
			return err
		}
		graphs[i] = gr
	}

	variants := []struct {
		name string
		call func(gr *graph.Graph) ([]float64, error)
	}{
		{"reference", g.EmbedReference},
		{"float64", g.Embed},
	}

	rep := embedBenchReport{
		GeneratedAt: clock.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
		Corpus:      benchEmbedCorpus,
		Sweeps:      benchEmbedSweeps,
	}
	for _, v := range variants {
		res, err := measureEmbedVariant(v.name, graphs, v.call)
		if err != nil {
			return fmt.Errorf("variant %s: %w", v.name, err)
		}
		rep.Variants = append(rep.Variants, res)
		fmt.Printf("%-10s %12.0f ns/op %12.1f allocs/op   p50 %.3gs p99 %.3gs\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.P50Seconds, res.P99Seconds)
	}

	ref, f64 := rep.Variants[0], rep.Variants[1]
	rep.SpeedupFloat64 = ratio(ref.NsPerOp, f64.NsPerOp)
	rep.AllocsReductionFloat64 = ratio(ref.AllocsPerOp, f64.AllocsPerOp)
	fmt.Printf("float64 fast path: %.2fx faster, %.0fx fewer allocations than the tape path\n",
		rep.SpeedupFloat64, rep.AllocsReductionFloat64)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// measureEmbedVariant runs one warmup sweep (sizing the scratch pool, the
// only state an embed leaves behind), then measures benchEmbedSweeps timed
// sweeps. Per-op latency lands in the same ghn.embed.seconds histogram
// shape /v1/metrics exposes; allocations are the runtime.MemStats Mallocs
// delta across the timed region.
func measureEmbedVariant(name string, graphs []*graph.Graph, call func(*graph.Graph) ([]float64, error)) (embedVariantResult, error) {
	reg := obs.NewRegistry(clock)
	hist := reg.Histogram("ghn.embed.seconds", obs.LatencyBuckets())

	for _, gr := range graphs {
		if _, err := call(gr); err != nil {
			return embedVariantResult{}, err
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clock.Now()
	ops := 0
	for sweep := 0; sweep < benchEmbedSweeps; sweep++ {
		for _, gr := range graphs {
			t0 := clock.Now()
			if _, err := call(gr); err != nil {
				return embedVariantResult{}, err
			}
			hist.ObserveDuration(obs.Since(clock, t0))
			ops++
		}
	}
	total := obs.Since(clock, start)
	runtime.ReadMemStats(&after)

	hv, _ := reg.Snapshot().HistogramByName("ghn.embed.seconds")
	return embedVariantResult{
		Name:        name,
		NsPerOp:     float64(total.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		P50Seconds:  hv.Quantile(0.5),
		P99Seconds:  hv.Quantile(0.99),
		Ops:         ops,
	}, nil
}

// ratio returns a/b, guarding the degenerate zero-denominator case so the
// report never contains Inf (invalid JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
