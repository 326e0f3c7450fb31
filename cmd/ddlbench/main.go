// Command ddlbench regenerates the PredictDDL paper's evaluation figures
// (see DESIGN.md §3 for the experiment index). By default it trains the
// full-scale lab — the complete 31-model zoo across 1–20 servers on both
// datasets — and prints every figure; -fig selects one.
//
// Usage:
//
//	ddlbench [-fig all|1|2|5|6|9|10|11|12|13|baselines|hetero|sharedghn|confidence]
//	         [-seed N] [-quick] [-dump-campaign points.csv]
//	         [-ghn-batch N] [-ghn-parallel N] [-batch N] [-metrics]
//	         [-bench-embed BENCH_embed.json]
//	         [-leaderboard] [-leaderboard-out BENCH_leaderboard.json] [-folds N]
//	         [-leaderboard-timings]
//
// -quick downsizes the lab (fewer GHN training graphs, fewer cluster
// sizes) for a fast smoke run; -dump-campaign exports the CIFAR-10
// measurement campaign as CSV and exits.
//
// -ghn-batch and -ghn-parallel tune GHN training speed: gradients for a
// mini-batch of N graphs are computed in parallel and reduced in fixed
// order, so for a given -ghn-batch the figures are bit-identical at any
// -ghn-parallel. -batch N skips the figures, trains one quick predictor,
// and times a batch of N predictions cold (empty embedding cache) and warm
// against the serial Predict loop, reporting p50/p99 embed latency from the
// obs histograms. -bench-embed FILE benchmarks the tape-based reference
// embed against the tape-free fast path and writes the JSON report (ns/op,
// allocs/op, p50/p99, speedup ratios) to FILE — the BENCH_embed.json
// artifact CI uploads. -metrics instruments the lab with a metrics registry
// and prints its snapshot (GHN step times, embed latencies) after the
// figure run; instrumentation never changes figure output.
//
// -leaderboard runs every registered predictor backend (see DESIGN.md §14)
// over every dataset's campaign via seeded k-fold cross-validation, prints
// the per-dataset ranking with fit/predict wall time, and writes the
// deterministic BENCH_leaderboard.json artifact (byte-identical across
// same-seed runs; -leaderboard-timings appends a wall-clock section at the
// cost of that reproducibility). The run fails unless the knn and gb-stumps
// backends each beat the analytical roofline floor on at least one dataset.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"predictddl"
	"predictddl/internal/dataset"
	"predictddl/internal/experiments"
	"predictddl/internal/obs"
	"predictddl/internal/simulator"
)

// clock is the single time source for every ad-hoc measurement in this
// command; stage timings all flow through obs so ddlbench reports the same
// histograms the serving path exposes on /v1/metrics.
var clock obs.Clock = obs.SystemClock{}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 1, 2, 5, 6, 9, 10, 11, 12, 13, baselines, hetero, sharedghn, confidence")
	seed := flag.Int64("seed", 1, "deterministic seed for the whole lab")
	quick := flag.Bool("quick", false, "downsized lab for a fast smoke run")
	dumpCampaign := flag.String("dump-campaign", "", "write the CIFAR-10 campaign points to this CSV file and exit")
	ghnBatch := flag.Int("ghn-batch", 0, "GHN training mini-batch size (0 = per-graph updates)")
	ghnParallel := flag.Int("ghn-parallel", 0, "GHN training workers per batch (0 = NumCPU, 1 = serial; results are identical either way)")
	batchDemo := flag.Int("batch", 0, "run the batch-prediction demo over N workloads instead of the figures")
	benchEmbed := flag.String("bench-embed", "", "benchmark the embed fast path and write the JSON report to FILE, then exit")
	metrics := flag.Bool("metrics", false, "print the lab's metrics registry snapshot after the run")
	leaderboard := flag.Bool("leaderboard", false, "run the predictor-backend leaderboard over every dataset instead of the figures")
	leaderboardOut := flag.String("leaderboard-out", "BENCH_leaderboard.json", "leaderboard artifact path")
	leaderboardTimings := flag.Bool("leaderboard-timings", false, "append wall-clock fit/predict timings to the artifact (makes it non-reproducible)")
	folds := flag.Int("folds", 5, "leaderboard cross-validation fold count")
	flag.Parse()

	if *benchEmbed != "" {
		exitOn(runBenchEmbed(*benchEmbed, *seed))
		return
	}
	if *batchDemo > 0 {
		exitOn(runBatchDemo(*batchDemo, *seed, *ghnBatch, *ghnParallel))
		return
	}

	lab := experiments.NewLab(*seed)
	lab.GHNBatchSize = *ghnBatch
	lab.GHNParallelism = *ghnParallel
	if *metrics {
		lab.Obs = obs.NewRegistry(clock)
	}
	if *quick {
		lab.GHNGraphs = 64
		lab.GHNEpochs = 6
		lab.ServerCounts = []int{1, 2, 4, 8, 12, 16, 20}
	}

	if *leaderboard {
		exitOn(runLeaderboard(lab, *leaderboardOut, *folds, *leaderboardTimings))
		return
	}

	if *dumpCampaign != "" {
		points, err := lab.Campaign(lab.CIFAR10())
		exitOn(err)
		f, err := os.Create(*dumpCampaign)
		exitOn(err)
		exitOn(simulator.WriteCSV(f, points))
		exitOn(f.Close())
		fmt.Printf("wrote %d campaign points to %s\n", len(points), *dumpCampaign)
		return
	}

	want := func(id string) bool { return *fig == "all" || *fig == id }
	start := clock.Now()
	ran := 0

	if want("1") {
		res, err := experiments.Fig01VGG16(lab)
		exitOn(err)
		section("Fig. 1 — black box vs gray box, VGG-16 (paper: up to 99.5% RMSE improvement)")
		fmt.Println(res)
		ran++
	}
	if want("2") {
		res, err := experiments.Fig02MobileNetV3(lab)
		exitOn(err)
		section("Fig. 2 — black box vs gray box, MobileNet-V3 (paper: up to 91.2% improvement)")
		fmt.Println(res)
		ran++
	}
	if want("5") {
		res, err := experiments.Fig05EmbeddingSpace(lab)
		exitOn(err)
		section("Fig. 5 — cosine similarity of GHN embeddings (same family ⇒ more similar)")
		fmt.Print(res)
		ran++
	}
	if want("6") {
		rows, err := experiments.Fig06FeatureAblation(lab)
		exitOn(err)
		section("Fig. 6 — DNN feature ablation (paper: GHN ≫ layers/params; closer to 1 is better)")
		for _, r := range rows {
			fmt.Println(r)
		}
		ran++
	}
	if want("9") {
		rows, sum, err := experiments.Fig09(lab)
		exitOn(err)
		section("Fig. 9 — PredictDDL vs Ernest per Table-II workload (paper: 9.8x lower error, 8% mean)")
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Println("summary:", sum)
		ran++
	}
	if want("10") {
		rows, err := experiments.Fig10Regressors(lab)
		exitOn(err)
		section("Fig. 10 — regressor comparison (paper: PR/LR robust on both datasets)")
		for _, r := range rows {
			fmt.Println(r)
		}
		ran++
	}
	if want("11") {
		rows, err := experiments.Fig11SplitSensitivity(lab)
		exitOn(err)
		section("Fig. 11 — train/test split sensitivity (paper: no material change across splits)")
		for _, r := range rows {
			fmt.Println(r)
		}
		ran++
	}
	if want("12") {
		rows, err := experiments.Fig12ClusterSize(lab)
		exitOn(err)
		section("Fig. 12 — prediction error by execution cluster size (paper: 0.1%–23.5%)")
		for _, r := range rows {
			fmt.Println(r)
		}
		ran++
	}
	if want("13") {
		rows, err := experiments.Fig13BatchJobs(lab)
		exitOn(err)
		section("Fig. 13 — batch prediction jobs (paper: 2.6/5.1/7.7/10.3x; shape: speedup grows with batch)")
		for _, r := range rows {
			fmt.Println(r)
		}
		ran++
	}

	if want("baselines") {
		rows, err := experiments.ThreeWayBaselines(lab)
		exitOn(err)
		section("Extension — three-way baselines on CIFAR-10: PredictDDL vs Ernest (§V-A) vs Paleo-style analytical (§V-B)")
		for _, r := range rows {
			fmt.Println(r)
		}
		ran++
	}

	if want("hetero") {
		rows, err := experiments.HeterogeneousClusters(lab)
		exitOn(err)
		section("Extension — heterogeneous clusters (mixed CPU classes never seen in the campaign)")
		for _, r := range rows {
			fmt.Println(r)
		}
		ran++
	}
	if want("confidence") {
		rows, rho, err := experiments.ConfidenceCalibration(lab)
		exitOn(err)
		section("Extension — confidence calibration on held-out architectures (low similarity ⇒ higher error?)")
		for _, r := range rows {
			fmt.Println(r)
		}
		fmt.Printf("Spearman ρ(low-confidence, high-error) = %.2f over %d held-out models\n", rho, len(rows))
		ran++
	}
	if want("sharedghn") {
		rows, err := experiments.SharedGHN(lab)
		exitOn(err)
		section("Extension — one shared GHN across datasets (paper future work §VI)")
		for _, r := range rows {
			fmt.Println(r)
		}
		ran++
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "ddlbench: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("\n%d experiment(s) regenerated in %v\n", ran, obs.Since(clock, start).Round(time.Millisecond))
	if *metrics {
		section("Metrics registry snapshot (GHN training + embed instrumentation)")
		fmt.Print(lab.Obs.Snapshot().Text())
	}
}

// runLeaderboard evaluates every registered backend over every dataset's
// campaign via seeded k-fold, prints the ranking with wall-clock timings,
// and writes the BENCH_leaderboard.json artifact. The artifact is
// byte-identical across same-seed runs unless -leaderboard-timings opts into
// the wall-clock section. Exit is non-zero when a learned backend fails to
// beat the analytical roofline floor on at least one dataset — the
// leaderboard's reason to exist is that learned backends must earn their keep.
func runLeaderboard(lab *experiments.Lab, outPath string, folds int, withTimings bool) error {
	names := dataset.Names()
	section(fmt.Sprintf("Backend leaderboard — %d backends × %s, %d-fold CV, seed %d",
		len(predictddl.BackendNames()), strings.Join(names, "/"), folds, lab.Seed))
	datasets := make([]dataset.Dataset, len(names))
	for i, n := range names {
		d, err := dataset.Lookup(n)
		if err != nil {
			return err
		}
		datasets[i] = d
	}
	corpora, err := lab.LeaderboardCorpora(datasets)
	if err != nil {
		return err
	}
	board, timings, err := experiments.RunLeaderboard(corpora, experiments.LeaderboardConfig{Seed: lab.Seed, Folds: folds}, clock)
	if err != nil {
		return err
	}
	fmt.Print(board.RenderTable(timings))

	data, err := board.MarshalArtifact()
	if err != nil {
		return err
	}
	if withTimings {
		extended := struct {
			*experiments.Leaderboard
			Timings []experiments.LeaderboardTiming `json:"timings"`
		}{board, timings}
		if data, err = json.MarshalIndent(extended, "", "  "); err != nil {
			return err
		}
		data = append(data, '\n')
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d backends × %d datasets)\n", outPath, len(board.Backends), len(board.Datasets))

	// The floor gate: each learned newcomer must beat roofline somewhere.
	for _, learned := range []string{"knn", "gb-stumps"} {
		beats := false
		for _, d := range board.Datasets {
			l, lok := board.Entry(d.Dataset, learned)
			r, rok := board.Entry(d.Dataset, "roofline")
			if lok && rok && l.Error == "" && r.Error == "" && l.MAPE < r.MAPE {
				beats = true
				break
			}
		}
		if !beats {
			return fmt.Errorf("learned backend %q does not beat the roofline floor on any dataset", learned)
		}
	}
	fmt.Println("floor gate: knn and gb-stumps each beat the roofline on ≥ 1 dataset")
	return nil
}

// runBatchDemo trains a quick predictor and compares a serial Predict loop
// against PredictBatch over n zoo workloads, cold (empty embedding cache)
// and warm — the Fig. 13 batch-job scenario measured on this machine.
func runBatchDemo(n int, seed int64, ghnBatch, ghnParallel int) error {
	section(fmt.Sprintf("Batch-prediction demo — %d workloads, quick cifar10 predictor", n))
	zoo := predictddl.Zoo()
	models := make([]string, n)
	for i := range models {
		models[i] = zoo[i%len(zoo)]
	}

	// Each predictor gets its own registry, so serial and batch report
	// independent embed-latency histograms over the same workload set.
	serialObs := obs.NewRegistry(clock)
	trainStart := clock.Now()
	p, err := predictddl.Train(predictddl.Options{
		Dataset:        "cifar10",
		GHNGraphs:      64,
		GHNEpochs:      6,
		GHNBatchSize:   ghnBatch,
		GHNParallelism: ghnParallel,
		Seed:           seed,
		Obs:            serialObs,
	})
	if err != nil {
		return err
	}
	fmt.Printf("trained predictor in %v\n", obs.Since(clock, trainStart).Round(time.Millisecond))
	trainedEmbeds := embedCount(serialObs)

	// Serial loop on a fresh engine state is approximated by running it
	// first: both paths then get one cold and one warm measurement.
	serialCold := clock.Now()
	serial := make([]float64, n)
	for i, m := range models {
		if serial[i], err = p.Predict(m, 8); err != nil {
			return err
		}
	}
	fmt.Printf("serial   cold %8v", obs.Since(clock, serialCold).Round(time.Microsecond))
	serialWarm := clock.Now()
	for i, m := range models {
		if serial[i], err = p.Predict(m, 8); err != nil {
			return err
		}
	}
	fmt.Printf("   warm %8v\n", obs.Since(clock, serialWarm).Round(time.Microsecond))

	// A second predictor gives the batch path its own cold cache.
	batchObs := obs.NewRegistry(clock)
	pb, err := predictddl.Train(predictddl.Options{
		Dataset:        "cifar10",
		GHNGraphs:      64,
		GHNEpochs:      6,
		GHNBatchSize:   ghnBatch,
		GHNParallelism: ghnParallel,
		Seed:           seed,
		Obs:            batchObs,
	})
	if err != nil {
		return err
	}
	batchCold := clock.Now()
	batch, err := pb.PredictBatch(models, 8)
	if err != nil {
		return err
	}
	fmt.Printf("batch    cold %8v", obs.Since(clock, batchCold).Round(time.Microsecond))
	batchWarm := clock.Now()
	if batch, err = pb.PredictBatch(models, 8); err != nil {
		return err
	}
	fmt.Printf("   warm %8v\n", obs.Since(clock, batchWarm).Round(time.Microsecond))

	for i := range batch {
		if batch[i] != serial[i] {
			return fmt.Errorf("batch and serial predictions diverge at %s: %v vs %v",
				models[i], batch[i], serial[i])
		}
	}
	fmt.Printf("all %d batch predictions bit-identical to the serial loop\n", n)
	printEmbedLatency("serial", serialObs, trainedEmbeds)
	printEmbedLatency("batch ", batchObs, trainedEmbeds)
	return nil
}

// embedCount reads how many ghn.embed.seconds observations a registry has
// recorded so far — used to separate training-time embeds from demo embeds.
func embedCount(r *obs.Registry) uint64 {
	hv, ok := r.Snapshot().HistogramByName("ghn.embed.seconds")
	if !ok {
		return 0
	}
	return hv.Count
}

// printEmbedLatency reports the embed-path latency distribution for one
// predictor, excluding the offline-training embeds counted in skip. The warm
// pass never embeds (cache hits), so these are exactly the cold-pass embeds.
func printEmbedLatency(label string, r *obs.Registry, skip uint64) {
	hv, ok := r.Snapshot().HistogramByName("ghn.embed.seconds")
	if !ok || hv.Count <= skip {
		return
	}
	fmt.Printf("%s embeds: %d cold (training pass excluded), all-embed latency p50 %.3gs p99 %.3gs\n",
		label, hv.Count-skip, hv.Quantile(0.5), hv.Quantile(0.99))
}

func section(title string) {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("─", len([]rune(title))))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddlbench:", err)
		os.Exit(1)
	}
}
