package ghn

import (
	"runtime"
	"testing"

	"predictddl/internal/graph"
	"predictddl/internal/tensor"
)

// trainWeights trains a small GHN and returns the flattened weights.
func trainWeights(t *testing.T, tc TrainConfig) (*GHN, []float64) {
	t.Helper()
	g, _, err := Train(Config{HiddenDim: 8}, tc)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for _, p := range g.Params() {
		flat = append(flat, p.W.Data()...)
	}
	return g, flat
}

// The guard for the fixed-order gradient reduction: sharding a batch across
// 8 workers must produce bit-identical weights and predictions to the
// serial single-worker run at the same seed.
func TestParallelTrainingBitIdentical(t *testing.T) {
	base := TrainConfig{Graphs: 24, Epochs: 2, Seed: 11, BatchSize: 6}

	serialCfg := base
	serialCfg.Parallelism = 1
	gSerial, wSerial := trainWeights(t, serialCfg)

	parallelCfg := base
	parallelCfg.Parallelism = 8
	gParallel, wParallel := trainWeights(t, parallelCfg)

	if len(wSerial) != len(wParallel) {
		t.Fatalf("weight counts differ: %d vs %d", len(wSerial), len(wParallel))
	}
	for i := range wSerial {
		if wSerial[i] != wParallel[i] {
			t.Fatalf("weight %d differs: serial %v, parallel %v", i, wSerial[i], wParallel[i])
		}
	}

	gr := graph.MustBuild("squeezenet1_1", graph.DefaultConfig())
	eS, err := gSerial.Embed(gr)
	if err != nil {
		t.Fatal(err)
	}
	eP, err := gParallel.Embed(gr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range eS {
		if eS[i] != eP[i] {
			t.Fatalf("embedding %d differs: serial %v, parallel %v", i, eS[i], eP[i])
		}
	}
}

// Batches that do not divide the epoch evenly must still be deterministic
// across worker counts (the final short batch exercises the slots prefix).
func TestParallelTrainingRaggedBatch(t *testing.T) {
	base := TrainConfig{Graphs: 10, Epochs: 2, Seed: 3, BatchSize: 4}
	s := base
	s.Parallelism = 1
	_, wS := trainWeights(t, s)
	p := base
	p.Parallelism = 3
	_, wP := trainWeights(t, p)
	for i := range wS {
		if wS[i] != wP[i] {
			t.Fatalf("weight %d differs with ragged batches", i)
		}
	}
}

// Minibatch training must still actually learn.
func TestBatchTrainingReducesLoss(t *testing.T) {
	_, report, err := Train(Config{HiddenDim: 16}, TrainConfig{
		Graphs: 24, Epochs: 8, Seed: 1, BatchSize: 4, Parallelism: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.FinalLoss >= report.InitialLoss {
		t.Fatalf("minibatch loss did not decrease: %v → %v", report.InitialLoss, report.FinalLoss)
	}
}

// BenchmarkGHNTrainParallel compares the serial proxy-training path against
// the sharded one at the same batch size; on a multi-core runner the
// parallel variant should approach a NumCPU-fold speedup since each step is
// dominated by the independent per-graph forward/backward passes.
func BenchmarkGHNTrainParallel(b *testing.B) {
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _, err := Train(Config{HiddenDim: 32}, TrainConfig{
				Graphs: 64, Epochs: 2, Seed: 1, BatchSize: 16, Parallelism: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.NumCPU()) })
}

// benchWorker is a serial training worker plus prepared graphs at the
// benchmark's scale (BENCHMARK.json's offline_fit: zero Config, so d = 32
// without virtual edges, CIFAR-shaped DARTS-style graphs).
func benchWorker(tb testing.TB, graphs int) (*trainWorker, []*tapeGraph) {
	tb.Helper()
	rng := tensor.NewRNG(1)
	g := New(Config{}, rng)
	tgs := make([]*tapeGraph, graphs)
	for i := range tgs {
		var err error
		if tgs[i], err = g.newTrainGraph(graph.RandomGraph(rng, graph.DefaultConfig())); err != nil {
			tb.Fatal(err)
		}
	}
	return newTrainPool(g, g.Params(), 1)[0], tgs
}

// BenchmarkGHNTrainStep is one gradStep — arena reset, forward, loss,
// backward — per op, so -benchmem reads training's ns and allocs per graph.
func BenchmarkGHNTrainStep(b *testing.B) {
	w, tgs := benchWorker(b, 16)
	for _, tg := range tgs {
		w.gradStep(tg) // grow the arena and the tape tables to their steady size
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.gradStep(tgs[i%len(tgs)])
	}
}

// The worker replicas must start from the master's exact weights.
func TestCloneArchSharesNothingButValues(t *testing.T) {
	g := New(Config{HiddenDim: 8}, tensor.NewRNG(5))
	c := g.cloneArch()
	gp, cp := g.Params(), c.Params()
	if len(gp) != len(cp) {
		t.Fatalf("param counts differ: %d vs %d", len(gp), len(cp))
	}
	for i := range gp {
		gd, cd := gp[i].W.Data(), cp[i].W.Data()
		if &gd[0] == &cd[0] {
			t.Fatalf("param %q shares storage with the master", gp[i].Name)
		}
		for j := range gd {
			if gd[j] != cd[j] {
				t.Fatalf("param %q value %d differs after clone", gp[i].Name, j)
			}
		}
	}
}
