package graph

import (
	"testing"

	"predictddl/internal/tensor"
)

// Package-level sinks keep the compiler from dropping the measured calls.
var (
	sinkGraph *Graph
	sinkStr   string
)

// smallRandomSpec bounds the ≈26-node graphs bench/'s batch_churn sends.
var smallRandomSpec = RandomSpec{MinStages: 1, MaxStages: 2, MinBlocks: 1, MaxBlocks: 2, MinChannels: 16}

// BenchmarkBuildZoo is the by-name predict's graph cost: the 31 zoo models
// round-robin at CIFAR-10 shape, one Build per op.
func BenchmarkBuildZoo(b *testing.B) {
	zoo := Zoo()
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGraph = MustBuild(zoo[i%len(zoo)], cfg)
	}
}

func benchFromSpec(b *testing.B, specs []*Spec) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := FromSpec(specs[i%len(specs)])
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}

// BenchmarkFromSpec is the custom-graph path after decode, on the sizes the
// repo's workloads send: four small zoo specs, 16 batch_churn-sized random
// specs and 16 default DARTS-sized ones (cold_custom).
func BenchmarkFromSpec(b *testing.B) {
	b.Run("small_zoo", func(b *testing.B) {
		var specs []*Spec
		for _, name := range []string{"alexnet", "vgg11", "squeezenet1_1", "resnet18"} {
			specs = append(specs, MustBuild(name, DefaultConfig()).Spec())
		}
		benchFromSpec(b, specs)
	})
	random := func(rs RandomSpec) []*Spec {
		rng := tensor.NewRNG(7)
		specs := make([]*Spec, 16)
		for i := range specs {
			specs[i] = RandomGraphSpec(rng, DefaultConfig(), rs).Spec()
		}
		return specs
	}
	b.Run("small_random", func(b *testing.B) { benchFromSpec(b, random(smallRandomSpec)) })
	b.Run("darts", func(b *testing.B) { benchFromSpec(b, random(DefaultRandomSpec())) })
}

// BenchmarkFingerprintZoo hashes the 31 prebuilt zoo graphs round-robin.
func BenchmarkFingerprintZoo(b *testing.B) {
	var graphs []*Graph
	for _, name := range Zoo() {
		graphs = append(graphs, MustBuild(name, DefaultConfig()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStr = graphs[i%len(graphs)].Fingerprint()
	}
}

// BenchmarkRandomGraph draws GHN-training / cold_custom graphs (default
// bounds) and batch_churn-sized ones from one seeded stream each.
func BenchmarkRandomGraph(b *testing.B) {
	for _, c := range []struct {
		name string
		spec RandomSpec
	}{{"darts", DefaultRandomSpec()}, {"small", smallRandomSpec}} {
		b.Run(c.name, func(b *testing.B) {
			rng := tensor.NewRNG(11)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkGraph = RandomGraphSpec(rng, DefaultConfig(), c.spec)
			}
		})
	}
}
