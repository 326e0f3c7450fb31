package costmodel_test

import (
	"math"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/costmodel"
	"predictddl/internal/dataset"
	"predictddl/internal/graph"
	"predictddl/internal/simulator"
)

func TestPredictValidation(t *testing.T) {
	m := costmodel.Paleo{Dataset: dataset.CIFAR10()}
	c := cluster.Homogeneous(2, cluster.SpecGPUP100())
	if _, err := m.Predict(nil, c); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := graph.MustBuild("resnet18", graph.DefaultConfig())
	if _, err := m.Predict(g, cluster.Cluster{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	bad := costmodel.Paleo{}
	if _, err := bad.Predict(g, c); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestPredictPositiveAndScalesWithModel(t *testing.T) {
	m := costmodel.Paleo{Dataset: dataset.CIFAR10()}
	c := cluster.Homogeneous(4, cluster.SpecGPUP100())
	small, err := m.Predict(graph.MustBuild("squeezenet1_1", graph.DefaultConfig()), c)
	if err != nil {
		t.Fatal(err)
	}
	big, err := m.Predict(graph.MustBuild("vgg19", graph.DefaultConfig()), c)
	if err != nil {
		t.Fatal(err)
	}
	if small <= 0 || big <= small {
		t.Fatalf("small=%v big=%v", small, big)
	}
}

// Paleo gets within the right order of magnitude of ground truth (it
// shares the simulator's step-time terms) but carries a systematic per-model bias
// because its single efficiency constant ignores operation mix — exactly
// the gap PredictDDL's embedding closes.
func TestPaleoBiasDependsOnOpMix(t *testing.T) {
	d := dataset.CIFAR10()
	m := costmodel.Paleo{Dataset: d}
	sim := simulator.New(1, simulator.Options{NoiseSigma: -1})
	c := cluster.Homogeneous(1, cluster.SpecGPUP100())

	bias := func(model string) float64 {
		g := graph.MustBuild(model, d.GraphConfig())
		pred, err := m.Predict(g, c)
		if err != nil {
			t.Fatal(err)
		}
		actual, err := sim.TrainingTime(simulator.Workload{Graph: g, Dataset: d, BatchPerServer: costmodel.BatchPerServer, Epochs: costmodel.Epochs}, c)
		if err != nil {
			t.Fatal(err)
		}
		return pred / actual
	}
	// Dense-conv models achieve more than Paleo's efficiency constant, so
	// their actual time is shorter and pred/actual lands above 1;
	// depthwise-heavy models achieve far less, so Paleo under-predicts
	// them (pred/actual well below 1).
	dense := bias("vgg16")
	dw := bias("mobilenet_v3_large")
	if ratio := dense / dw; ratio < 1.5 {
		t.Fatalf("expected op-mix-dependent bias, got dense=%v dw=%v", dense, dw)
	}
	// Still the right order of magnitude for both.
	for _, b := range []float64{dense, dw} {
		if b < 0.2 || b > 5 {
			t.Fatalf("Paleo bias %v outside order-of-magnitude band", b)
		}
	}
}

func TestPaleoNoCommSingleServer(t *testing.T) {
	d := dataset.CIFAR10()
	m := costmodel.Paleo{Dataset: d}
	g := graph.MustBuild("resnet50", d.GraphConfig())
	t1, err := m.Predict(g, cluster.Homogeneous(1, cluster.SpecGPUP100()))
	if err != nil {
		t.Fatal(err)
	}
	t8, err := m.Predict(g, cluster.Homogeneous(8, cluster.SpecGPUP100()))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(t1) || math.IsNaN(t8) || t1 <= 0 || t8 <= 0 {
		t.Fatalf("t1=%v t8=%v", t1, t8)
	}
}

// TestPaleoPinnedBits pins Paleo's estimate to the bit on a spread of
// (dataset, model, cluster) cases, mixed server classes included. The
// expected values were recorded before Paleo moved onto this package's
// shared terms; a change that moves any of them changes the baseline
// column of every three-way comparison.
func TestPaleoPinnedBits(t *testing.T) {
	mixed := cluster.Cluster{Servers: []cluster.Server{
		cluster.NewServer(cluster.SpecCPUE52630()),
		cluster.NewServer(cluster.SpecCPUE52650()),
		cluster.NewServer(cluster.SpecCPUE52630()),
	}}
	for _, c := range []struct {
		d     dataset.Dataset
		model string
		c     cluster.Cluster
		want  uint64
	}{
		{dataset.CIFAR10(), "resnet18", cluster.Homogeneous(1, cluster.SpecGPUP100()), 0x403dfb7fd3923bdf},
		{dataset.CIFAR10(), "vgg16", cluster.Homogeneous(4, cluster.SpecGPUP100()), 0x406c330104abe070},
		{dataset.CIFAR10(), "mobilenet_v3_large", cluster.Homogeneous(8, cluster.SpecGPUP100()), 0x4028a92a24c39be9},
		{dataset.TinyImageNet(), "resnet50", cluster.Homogeneous(2, cluster.SpecCPUE52630()), 0x40b1391c32c5b17d},
		{dataset.ImageNet(), "densenet121", cluster.Homogeneous(20, cluster.SpecCPUE52650()), 0x40f7e596be1fca70},
		{dataset.TinyImageNet(), "squeezenet1_0", mixed, 0x4088567eddd9a5ca},
	} {
		got, err := costmodel.Paleo{Dataset: c.d}.Predict(graph.MustBuild(c.model, c.d.GraphConfig()), c.c)
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(got); bits != c.want {
			t.Errorf("%s %s on %d servers: Paleo = %v (%#x), want %v (%#x)",
				c.d.Name, c.model, c.c.Size(), got, bits, math.Float64frombits(c.want), c.want)
		}
	}
}
