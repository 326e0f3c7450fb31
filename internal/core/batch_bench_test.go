package core

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/dataset"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/regress"
	"predictddl/internal/tensor"
)

// fittedEngine is a cifar10 engine without the offline pipeline: a fresh
// GHN of the given config plus a linear regressor fitted on a tiny
// synthetic design. Same config, same weights, same predictions.
func fittedEngine(t testing.TB, cfg ghn.Config) *InferenceEngine {
	t.Helper()
	g := ghn.New(cfg, tensor.NewRNG(1))
	cols := g.EmbeddingDim() + len(cluster.FeatureNames())
	rng := tensor.NewRNG(2)
	x := rng.GlorotMatrix(cols+4, cols)
	y := make([]float64, x.Rows())
	rng.FillUniform(y, 1, 100)
	m := regress.NewLinearRegression()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return NewInferenceEngine("cifar10", g, m)
}

// sweepBody is a /v1/predict/batch body pricing one zoo model on 1..n
// servers: the what-if sweep a batch is for.
func sweepBody(model string, n int) []byte {
	reqs := make([]PredictRequest, n)
	for i := range reqs {
		reqs[i] = PredictRequest{Dataset: "cifar10", Model: model, NumServers: i + 1}
	}
	body, _ := json.Marshal(BatchRequest{Requests: reqs})
	return body
}

// BenchmarkBatchSweep serves a 20-size sweep of one architecture through
// the whole handler stack, on a warm embedding cache (build, fingerprint
// and regress) and on a cold one (plus the embed), with the GHN at the
// serving width.
func BenchmarkBatchSweep(b *testing.B) {
	for _, model := range []string{"resnet50", "efficientnet_b7"} {
		body := sweepBody(model, 20)
		for _, cache := range []string{"warm", "cold"} {
			b.Run(model+"/"+cache, func(b *testing.B) {
				e := fittedEngine(b, ghn.Config{})
				h := NewController(NewGHNRegistry(), e).Handler()
				post := func() {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(body)))
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d: %s", rec.Code, rec.Body)
					}
				}
				post()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cache == "cold" {
						b.StopTimer()
						e.SetEmbeddingCacheSize(DefaultEmbeddingCacheSize) // clears it
						b.StartTimer()
					}
					post()
				}
			})
		}
	}
}

// BenchmarkPredictBatchRepeated is offline_fit's Fig. 13 pass on a warm
// engine: every zoo graph at 20 cluster sizes, each graph pointer repeated
// 20 times, so what is left is hashing and regressing.
func BenchmarkPredictBatchRepeated(b *testing.B) {
	e := fittedEngine(b, ghn.Config{})
	cfg := dataset.CIFAR10().GraphConfig()
	var graphs []*graph.Graph
	var clusters []cluster.Cluster
	for _, name := range graph.Zoo() {
		g := graph.MustBuild(name, cfg)
		for n := 1; n <= 20; n++ {
			graphs = append(graphs, g)
			clusters = append(clusters, cluster.Homogeneous(n, cluster.SpecGPUP100()))
		}
	}
	if _, err := e.PredictBatch(graphs, clusters); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PredictBatch(graphs, clusters); err != nil {
			b.Fatal(err)
		}
	}
}
