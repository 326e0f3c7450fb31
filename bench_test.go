package predictddl

// This file holds one benchmark per paper table/figure (regenerating the
// experiment end-to-end and reporting its headline metric alongside timing)
// plus the ablation benches DESIGN.md §4 calls out, and micro-benchmarks of
// the performance-critical substrates. Run with:
//
//	go test -bench=. -benchmem
//
// Quality metrics are attached via b.ReportMetric — e.g. "relerr%" is the
// mean relative prediction error a configuration achieves.

import (
	"sync"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/dataset"
	"predictddl/internal/ernest"
	"predictddl/internal/experiments"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/obs"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// benchLab is shared across the figure benchmarks; it is sized between the
// unit-test lab and the full paper lab so a full -bench=. run stays
// tractable.
var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func sharedBenchLab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(1)
		benchLab.GHNGraphs = 96
		benchLab.GHNEpochs = 8
		benchLab.Models = []string{
			"efficientnet_b0", "resnext50_32x4d", "vgg16", "alexnet",
			"resnet18", "densenet161", "mobilenet_v3_large", "squeezenet1_0",
			"vgg11", "resnet50", "mobilenet_v2", "squeezenet1_1",
		}
	})
	// Warm the caches outside the timed region.
	if _, err := benchLab.GHN(benchLab.CIFAR10()); err != nil {
		b.Fatal(err)
	}
	if _, err := benchLab.Campaign(benchLab.CIFAR10()); err != nil {
		b.Fatal(err)
	}
	return benchLab
}

func BenchmarkFig01GrayBoxVGG16(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	var last experiments.Fig0102Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig01VGG16(lab)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ImprovementPct, "improvement%")
}

func BenchmarkFig02GrayBoxMobileNetV3(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	var last experiments.Fig0102Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig02MobileNetV3(lab)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ImprovementPct, "improvement%")
}

func BenchmarkFig05EmbeddingSpace(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig05EmbeddingSpace(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06FeatureAblation(b *testing.B) {
	lab := sharedBenchLab(b)
	if _, err := lab.GHN(lab.TinyImageNet()); err != nil {
		b.Fatal(err)
	}
	if _, err := lab.Campaign(lab.TinyImageNet()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rows []experiments.Fig06Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig06FeatureAblation(lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Dataset == "cifar10" && r.Features == "ghn-embedding" {
			b.ReportMetric(100*r.MeanRelErr, "ghn-relerr%")
		}
	}
}

func BenchmarkFig09aPredictDDLvsErnestCIFAR10(b *testing.B) { benchFig09(b, "cifar10") }

func BenchmarkFig09bPredictDDLvsErnestTinyImageNet(b *testing.B) { benchFig09(b, "tiny-imagenet") }

func benchFig09(b *testing.B, ds string) {
	lab := sharedBenchLab(b)
	if _, err := lab.GHN(lab.TinyImageNet()); err != nil {
		b.Fatal(err)
	}
	if _, err := lab.Campaign(lab.TinyImageNet()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sum experiments.Fig09Summary
	var rows []experiments.Fig09Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, sum, err = experiments.Fig09(lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	var pddl, ern float64
	var n int
	for _, r := range rows {
		if r.Dataset == ds {
			pddl += r.PredictDDLRelErr
			ern += r.ErnestRelErr
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(100*pddl/float64(n), "pddl-relerr%")
		b.ReportMetric(100*ern/float64(n), "ernest-relerr%")
	}
	b.ReportMetric(sum.Improvement, "improvement-x")
}

func BenchmarkFig10Regressors(b *testing.B) {
	lab := sharedBenchLab(b)
	if _, err := lab.GHN(lab.TinyImageNet()); err != nil {
		b.Fatal(err)
	}
	if _, err := lab.Campaign(lab.TinyImageNet()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10Regressors(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11SplitSensitivity(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11SplitSensitivity(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12ClusterSize(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12ClusterSize(lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13BatchJobs(b *testing.B) {
	lab := sharedBenchLab(b)
	b.ResetTimer()
	var rows []experiments.Fig13Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig13BatchJobs(lab)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 4 {
		b.ReportMetric(rows[3].Speedup, "speedup-x@8")
	}
}

// --- Ablation benches (DESIGN.md §4) ---

// ablationRelErr trains an engine with the given GHN and measures the mean
// relative error on an 80/20 split of the bench campaign.
func ablationRelErr(b *testing.B, g *ghn.GHN) float64 {
	b.Helper()
	lab := sharedBenchLab(b)
	d := lab.CIFAR10()
	points, err := lab.Campaign(d)
	if err != nil {
		b.Fatal(err)
	}
	x, y, _, err := core.DesignMatrixWithEmbeddings(g, points, d.GraphConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	trainIdx, testIdx := regress.TrainTestSplit(x.Rows(), 0.8, rng)
	xTrain, yTrain := regress.Take(x, y, trainIdx)
	xTest, yTest := regress.Take(x, y, testIdx)
	m := regress.NewLogTarget(regress.NewPolynomialRegression(2))
	if err := m.Fit(xTrain, yTrain); err != nil {
		b.Fatal(err)
	}
	pred, err := regress.PredictAll(m, xTest)
	if err != nil {
		b.Fatal(err)
	}
	return regress.MeanRelativeError(pred, yTest)
}

func trainAblationGHN(b *testing.B, cfg ghn.Config) *ghn.GHN {
	b.Helper()
	g, _, err := ghn.Train(cfg, ghn.TrainConfig{Graphs: 64, Epochs: 6, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkAblationEmbeddingDim(b *testing.B) {
	for _, dim := range []int{8, 16, 32, 64} {
		b.Run(map[int]string{8: "d8", 16: "d16", 32: "d32", 64: "d64"}[dim], func(b *testing.B) {
			var relErr float64
			for i := 0; i < b.N; i++ {
				g := trainAblationGHN(b, ghn.Config{EmbedDim: dim})
				relErr = ablationRelErr(b, g)
			}
			b.ReportMetric(100*relErr, "relerr%")
		})
	}
}

func BenchmarkAblationVirtualEdges(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			var relErr float64
			for i := 0; i < b.N; i++ {
				g := trainAblationGHN(b, ghn.Config{VirtualEdges: on, Normalize: true, MaxShortestPath: 5})
				relErr = ablationRelErr(b, g)
			}
			b.ReportMetric(100*relErr, "relerr%")
		})
	}
}

func BenchmarkAblationTraversal(b *testing.B) {
	for _, fwOnly := range []bool{false, true} {
		name := "fw+bw"
		if fwOnly {
			name = "fw-only"
		}
		b.Run(name, func(b *testing.B) {
			var relErr float64
			for i := 0; i < b.N; i++ {
				g := trainAblationGHN(b, ghn.Config{VirtualEdges: true, Normalize: true, ForwardOnly: fwOnly})
				relErr = ablationRelErr(b, g)
			}
			b.ReportMetric(100*relErr, "relerr%")
		})
	}
}

func BenchmarkAblationPolyDegree(b *testing.B) {
	lab := sharedBenchLab(b)
	d := lab.CIFAR10()
	g, err := lab.GHN(d)
	if err != nil {
		b.Fatal(err)
	}
	points, err := lab.Campaign(d)
	if err != nil {
		b.Fatal(err)
	}
	xFull, y, _, err := core.DesignMatrixWithEmbeddings(g, points, d.GraphConfig())
	if err != nil {
		b.Fatal(err)
	}
	// Truncate the embedding to its first 8 dimensions (keeping all cluster
	// features, which sit after the embedding in the design layout):
	// degree-3 expansion of the full 40-feature design would exceed 12k
	// columns and dominate the benchmark with a single Cholesky
	// factorization.
	const keepEmb = 8
	nCluster := len(cluster.FeatureNames())
	embDim := xFull.Cols() - nCluster
	x := tensor.NewMatrix(xFull.Rows(), keepEmb+nCluster)
	for i := 0; i < xFull.Rows(); i++ {
		row := xFull.Row(i)
		dst := x.Row(i)
		copy(dst[:keepEmb], row[:keepEmb])
		copy(dst[keepEmb:], row[embDim:])
	}
	for _, deg := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "deg1", 2: "deg2", 3: "deg3"}[deg], func(b *testing.B) {
			var relErr float64
			for i := 0; i < b.N; i++ {
				rng := tensor.NewRNG(7)
				trainIdx, testIdx := regress.TrainTestSplit(x.Rows(), 0.8, rng)
				xTrain, yTrain := regress.Take(x, y, trainIdx)
				xTest, yTest := regress.Take(x, y, testIdx)
				m := regress.NewLogTarget(regress.NewPolynomialRegression(deg))
				if err := m.Fit(xTrain, yTrain); err != nil {
					b.Fatal(err)
				}
				pred, err := regress.PredictAll(m, xTest)
				if err != nil {
					b.Fatal(err)
				}
				relErr = regress.MeanRelativeError(pred, yTest)
			}
			b.ReportMetric(100*relErr, "relerr%")
		})
	}
}

func BenchmarkAblationClusterNorm(b *testing.B) {
	// Predict partially loaded clusters with (a) load-aware Eq. 1–2
	// features and (b) features that ignore load — quantifying what the
	// paper's per-core normalization buys.
	lab := sharedBenchLab(b)
	d := lab.CIFAR10()
	g, err := lab.GHN(d)
	if err != nil {
		b.Fatal(err)
	}
	points, err := lab.Campaign(d)
	if err != nil {
		b.Fatal(err)
	}
	x, y, _, err := core.DesignMatrixWithEmbeddings(g, points, d.GraphConfig())
	if err != nil {
		b.Fatal(err)
	}
	m := regress.NewLogTarget(regress.NewPolynomialRegression(2))
	if err := m.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	engine := core.NewInferenceEngine(d.Name, g, m)
	sim := lab.Simulator()
	gr := graph.MustBuild("resnet18", d.GraphConfig())
	w := simulator.Workload{Graph: gr, Dataset: d, BatchPerServer: 128, Epochs: 10}

	loaded := cluster.Homogeneous(8, cluster.SpecGPUP100())
	for i := range loaded.Servers {
		loaded.Servers[i].GPUUtil = 0.5
	}
	idle := cluster.Homogeneous(8, cluster.SpecGPUP100())
	actual, err := sim.TrainingTime(w, loaded)
	if err != nil {
		b.Fatal(err)
	}

	for _, aware := range []bool{true, false} {
		name := "eq1-2-on"
		feats := loaded
		if !aware {
			name = "eq1-2-off"
			feats = idle
		}
		b.Run(name, func(b *testing.B) {
			var relErr float64
			for i := 0; i < b.N; i++ {
				pred, err := engine.Predict(gr, feats)
				if err != nil {
					b.Fatal(err)
				}
				relErr = abs(pred-actual) / actual
			}
			b.ReportMetric(100*relErr, "relerr%")
		})
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// --- Substrate micro-benchmarks ---

func BenchmarkGHNEmbedResNet50(b *testing.B) {
	g := ghn.New(ghn.Config{}, tensor.NewRNG(1))
	gr := graph.MustBuild("resnet50", graph.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Embed(gr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGHNEmbedResNet50Instrumented is the same embed loop with the
// obs registry attached — the delta against BenchmarkGHNEmbedResNet50
// bounds the instrumentation overhead on the embed hot path (the latency
// histogram's two clock reads and two atomic adds; budget < 2%, DESIGN.md
// §9).
func BenchmarkGHNEmbedResNet50Instrumented(b *testing.B) {
	g := ghn.New(ghn.Config{}, tensor.NewRNG(1))
	g.SetMetrics(ghn.NewMetrics(obs.NewRegistry(nil)))
	gr := graph.MustBuild("resnet50", graph.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Embed(gr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGHNEmbedResNet50Reference runs the tape-building training
// forward pass Embed used before the inference fast path existed; the
// delta against BenchmarkGHNEmbedResNet50 is the fast path's win
// (pooled arenas + fused embed gather).
func BenchmarkGHNEmbedResNet50Reference(b *testing.B) {
	g := ghn.New(ghn.Config{}, tensor.NewRNG(1))
	gr := graph.MustBuild("resnet50", graph.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.EmbedReference(gr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphBuildEfficientNetB7(b *testing.B) {
	cfg := graph.DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Build("efficientnet_b7", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorCampaign31x20(b *testing.B) {
	sim := simulator.New(1, simulator.Options{})
	spec := simulator.CampaignSpec{Dataset: dataset.CIFAR10(), ServerSpec: cluster.SpecGPUP100()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCampaign(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNNLSFit(b *testing.B) {
	rng := tensor.NewRNG(1)
	a := rng.GlorotMatrix(64, 4)
	y := make([]float64, 64)
	rng.FillNormal(y, 10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ernest.NNLS(a, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolynomialFit40Features(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := rng.GlorotMatrix(400, 40)
	y := make([]float64, 400)
	rng.FillNormal(y, 5, 1)
	for i := range y {
		if y[i] <= 0 {
			y[i] = 0.1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := regress.NewLogTarget(regress.NewPolynomialRegression(2))
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVRFit200Points(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := rng.GlorotMatrix(200, 10)
	y := make([]float64, 200)
	rng.FillNormal(y, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := regress.NewSVR()
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnginePredict(b *testing.B) {
	p := mustBenchPredictor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict("resnet50", 8); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	benchPredOnce sync.Once
	benchPred     *Predictor
	benchPredErr  error
)

func mustBenchPredictor(b *testing.B) *Predictor {
	b.Helper()
	benchPredOnce.Do(func() {
		benchPred, benchPredErr = Train(Options{
			Dataset:      "cifar10",
			Models:       []string{"resnet18", "resnet50", "vgg16", "alexnet"},
			ServerCounts: []int{1, 2, 4, 8, 16},
			GHNGraphs:    48,
			GHNEpochs:    4,
		})
	})
	if benchPredErr != nil {
		b.Fatal(benchPredErr)
	}
	return benchPred
}
