package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/dataset"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/obs"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// cheapEngine builds an untrained-but-functional engine without running the
// offline pipeline, small enough for Predict/Embedding/Confidence tests.
func cheapEngine(t testing.TB) *InferenceEngine {
	t.Helper()
	return fittedEngine(t, ghn.Config{HiddenDim: 8})
}

// Regression test for the name-keyed cache collision: two distinct graphs
// sharing a Name must not share an embedding.
func TestEmbeddingCacheNoNameCollision(t *testing.T) {
	e := cheapEngine(t)
	a := graph.MustBuild("resnet18", graph.DefaultConfig())
	b := graph.MustBuild("vgg16", graph.DefaultConfig())
	b.Name = a.Name // a modified graph reusing a zoo name

	ea, err := e.Embedding(a)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := e.Embedding(b)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.EuclideanDistance(ea, eb) < 1e-9 {
		t.Fatal("distinct graphs with the same name returned the same embedding")
	}
	// And the true resnet18 still hits its own cached entry.
	ea2, err := e.Embedding(a)
	if err != nil {
		t.Fatal(err)
	}
	if &ea[0] != &ea2[0] {
		t.Fatal("cache entry lost after same-name lookup")
	}
}

// Anonymous graphs (empty Name) must cache too — the fingerprint does not
// depend on the name.
func TestEmbeddingCacheAnonymousGraph(t *testing.T) {
	e := cheapEngine(t)
	g := graph.MustBuild("squeezenet1_1", graph.DefaultConfig())
	g.Name = ""
	a, err := e.Embedding(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Embedding(g)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("anonymous graph not cached")
	}
}

func TestEmbedAllMatchesEmbedding(t *testing.T) {
	e := cheapEngine(t)
	cfg := graph.DefaultConfig()
	graphs := []*graph.Graph{
		graph.MustBuild("resnet18", cfg),
		graph.MustBuild("vgg11", cfg),
		graph.MustBuild("resnet18", cfg), // duplicate: must dedup to one compute
		graph.MustBuild("mobilenet_v2", cfg),
	}
	batch, err := e.EmbedAll(graphs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(graphs) {
		t.Fatalf("EmbedAll returned %d rows for %d graphs", len(batch), len(graphs))
	}
	for i, g := range graphs {
		serial, err := e.Embedding(g)
		if err != nil {
			t.Fatal(err)
		}
		for j := range serial {
			if batch[i][j] != serial[j] {
				t.Fatalf("graph %d element %d: batch %v, serial %v", i, j, batch[i][j], serial[j])
			}
		}
	}
	// Duplicates resolve to the same cached slice.
	if &batch[0][0] != &batch[2][0] {
		t.Fatal("duplicate graphs did not share one cache entry")
	}
	if _, err := e.EmbedAll([]*graph.Graph{nil}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	e := cheapEngine(t)
	cfg := graph.DefaultConfig()
	spec := cluster.SpecGPUP100()
	graphs := []*graph.Graph{
		graph.MustBuild("resnet18", cfg),
		graph.MustBuild("vgg11", cfg),
		nil, // per-item failure must not fail the batch
	}
	clusters := []cluster.Cluster{
		cluster.Homogeneous(2, spec),
		cluster.Homogeneous(8, spec),
		cluster.Homogeneous(1, spec),
	}
	res, err := e.PredictBatch(graphs, clusters)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		want, err := e.Predict(graphs[i], clusters[i])
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Err != nil {
			t.Fatalf("item %d: %v", i, res[i].Err)
		}
		if res[i].Seconds != want {
			t.Fatalf("item %d: batch %v, serial %v", i, res[i].Seconds, want)
		}
	}
	if res[2].Err == nil {
		t.Fatal("nil graph item did not record an error")
	}
	if _, err := e.PredictBatch(graphs, clusters[:1]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// cyclicGraph is a two-node loop: it fingerprints fine and fails in the GHN.
func cyclicGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("loop")
	a := g.AddNode(&graph.Node{Op: graph.OpConv, OutChannels: 4, OutH: 2, OutW: 2})
	b := g.AddNode(&graph.Node{Op: graph.OpReLU, OutChannels: 4, OutH: 2, OutW: 2})
	for _, e := range [][2]int{{a, b}, {b, a}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// PredictBatch prices items on the shared batch body, so every failure mode
// has to stay on its own item — a cyclic graph (twice: the duplicate shares
// the failed embed), a nil graph, an invalid cluster, and a cyclic graph on
// an invalid cluster — with Predict's error for each, in Predict's order
// (the cluster is checked before anything is embedded), while the good
// items still equal Predict to the bit. Each item that reaches the embed
// step is looked up once: the batch once did every lookup twice.
func TestPredictBatchAttributesErrorsPerItem(t *testing.T) {
	e := cheapEngine(t)
	reg := obs.NewRegistry(nil)
	e.Instrument(reg)
	cfg := graph.DefaultConfig()
	spec := cluster.SpecGPUP100()
	loop := cyclicGraph(t)
	graphs := []*graph.Graph{
		graph.MustBuild("resnet18", cfg), loop, nil,
		graph.MustBuild("vgg11", cfg), loop, graph.MustBuild("resnet18", cfg), loop,
	}
	clusters := make([]cluster.Cluster, len(graphs))
	for i := range clusters {
		clusters[i] = cluster.Homogeneous(i+1, spec)
	}
	clusters[3] = cluster.Cluster{} // invalid: no servers
	clusters[6] = cluster.Cluster{} // and on a graph the GHN would reject
	res, err := e.PredictBatch(graphs, clusters)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 3, 4, 6} {
		if res[i].Err == nil {
			t.Errorf("item %d: bad item priced at %v", i, res[i].Seconds)
		}
	}
	if !errors.Is(res[1].Err, graph.ErrCyclic) || !errors.Is(res[4].Err, graph.ErrCyclic) {
		t.Errorf("cyclic items report %v / %v, want graph.ErrCyclic", res[1].Err, res[4].Err)
	}
	if got, want := fmt.Sprint(res[6].Err), "core: features: cluster: empty cluster"; got != want {
		t.Errorf("cyclic graph on an empty cluster: batch says %q, want Predict's %q", got, want)
	}
	// Whether resnet18's second graph finds the first's embedding cached
	// depends on the workers' interleaving; the number of lookups does not.
	if hits, misses := reg.Counter("embed.cache.hits").Value(), reg.Counter("embed.cache.misses").Value(); hits+misses != 4 || misses < 2 {
		t.Errorf("cold batch with 4 items past the checks counted %d hits, %d misses; want one lookup per item, both architectures missing", hits, misses)
	}
	for i := range graphs {
		want, err := e.Predict(graphs[i], clusters[i])
		if fmt.Sprint(res[i].Err) != fmt.Sprint(err) || math.Float64bits(res[i].Seconds) != math.Float64bits(want) {
			t.Errorf("item %d: batch (%v, %v), Predict (%v, %v)", i, res[i].Seconds, res[i].Err, want, err)
		}
	}
	if _, err := e.EmbedAll(graphs[:2]); !errors.Is(err, graph.ErrCyclic) {
		t.Errorf("EmbedAll over a cyclic graph returned %v", err)
	}
}

// The offline trainer embeds the campaign through the engine's own EmbedAll,
// so the engine it returns already holds those embeddings: pricing a
// campaign architecture runs no GHN embed.
func TestTrainEngineWarmsEmbeddingCache(t *testing.T) {
	d := dataset.CIFAR10()
	models := []string{"resnet18", "vgg11", "squeezenet1_1"}
	res, err := TrainEngine(TrainOptions{
		Dataset: d,
		GHN:     ghn.New(ghn.Config{HiddenDim: 8}, tensor.NewRNG(1)),
		Campaign: simulator.CampaignSpec{
			Models: models, ServerSpec: cluster.SpecGPUP100(), ServerCounts: simulator.CountRange(1, 4),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := res.Engine
	if got := e.EmbeddingCacheLen(); got != len(models) {
		t.Fatalf("engine starts with %d cached embeddings, want the %d campaign architectures", got, len(models))
	}
	reg := obs.NewRegistry(nil)
	e.Instrument(reg)
	for _, m := range models {
		if _, err := e.Predict(graph.MustBuild(m, d.GraphConfig()), cluster.Homogeneous(2, cluster.SpecGPUP100())); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := reg.Counter("embed.cache.hits").Value(), reg.Counter("embed.cache.misses").Value(); hits != uint64(len(models)) || misses != 0 {
		t.Fatalf("pricing the campaign architectures: %d hits, %d misses; want %d and 0", hits, misses, len(models))
	}
}

// BenchmarkEmbedAll compares per-graph serial embedding against the
// worker-pool batch path on a cold cache; on a multi-core runner the batch
// path should scale with GOMAXPROCS.
func BenchmarkEmbedAll(b *testing.B) {
	cfg := graph.DefaultConfig()
	names := []string{
		"resnet18", "resnet34", "resnet50", "vgg11", "vgg16", "alexnet",
		"mobilenet_v2", "mobilenet_v3_large", "squeezenet1_0", "densenet121",
		"efficientnet_b0", "resnext50_32x4d",
	}
	graphs := make([]*graph.Graph, len(names))
	for i, n := range names {
		graphs[i] = graph.MustBuild(n, cfg)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := cheapEngine(b)
			for _, g := range graphs {
				if _, err := e.Embedding(g); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := cheapEngine(b)
			if _, err := e.EmbedAll(graphs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
