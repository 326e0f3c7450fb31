package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/dataset"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/obs"
	"predictddl/internal/tensor"
)

// itemReply is what a client reads back for one prediction, from
// /v1/predict or as one batch item.
type itemReply struct {
	PredictResponse
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// serveJSON serves one JSON body through h and decodes the reply into out.
func serveJSON(h http.Handler, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		return rec.Code, fmt.Errorf("%s: status %d, undecodable body %q: %w", path, rec.Code, rec.Body, err)
	}
	return rec.Code, nil
}

// serveBatch serves one batch and returns its items, requiring a 200.
func serveBatch(h http.Handler, reqs []PredictRequest) ([]itemReply, error) {
	var br struct {
		Results []itemReply `json:"results"`
	}
	code, err := serveJSON(h, "/v1/predict/batch", BatchRequest{Requests: reqs}, &br)
	if err == nil && (code != http.StatusOK || len(br.Results) != len(reqs)) {
		err = fmt.Errorf("batch of %d: status %d, %d results", len(reqs), code, len(br.Results))
	}
	return br.Results, err
}

// One batch mixing everything the resolve step deduplicates and every
// failure class: each item equals its own /v1/predict call in bits, code
// and message, and each item holding a graph equals
// InferenceEngine.PredictBatch on that graph. The batch runs first, on cold
// caches, so the duplicates really are resolved and embedded once.
func TestBatchResolveParity(t *testing.T) {
	var engines []*InferenceEngine
	for _, name := range dataset.Names() {
		engines = append(engines, NewInferenceEngine(name, ghn.New(ghn.Config{HiddenDim: 8}, tensor.NewRNG(1)), sumSquares{}))
	}
	ctrl := NewController(NewGHNRegistry(), engines...)
	col, err := cluster.NewCollector("127.0.0.1:0", cluster.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ctrl.SetCollector(col) // attached but empty: num_servers 0 is a 503
	h := ctrl.Handler()

	custom := graph.RandomGraph(tensor.NewRNG(77), graph.DefaultConfig()).Spec()
	var reqs []PredictRequest
	for n := 1; n <= 20; n++ { // one architecture, a sweep of sizes
		reqs = append(reqs, PredictRequest{Dataset: "cifar10", Model: "resnet50", NumServers: n})
	}
	reqs = append(reqs,
		PredictRequest{Dataset: "cifar10", Graph: custom, NumServers: 3}, // the same spec twice
		PredictRequest{Dataset: "cifar10", Graph: custom, NumServers: 5},
		PredictRequest{Dataset: "cifar10", Model: "efficientnet_b7", NumServers: 7, ServerSpec: "cloudlab-e5-2630"}, // cold, held out of every campaign
	)
	for i, name := range dataset.Names() { // distinct models at every dataset shape
		for j, model := range []string{"resnet50", "vgg11", "mobilenet_v2"} {
			reqs = append(reqs, PredictRequest{Dataset: name, Model: model, NumServers: 1 + i + j})
		}
	}
	reqs = append(reqs,
		PredictRequest{Dataset: "cifar10", Model: "not-a-model", NumServers: 1},                  // 400, twice
		PredictRequest{Dataset: "cifar10", Model: "not-a-model", NumServers: 2},                  //
		PredictRequest{Dataset: "nope", Model: "resnet50", NumServers: 1},                        // 404
		PredictRequest{Dataset: "cifar10", Model: "resnet50"},                                    // 503
		PredictRequest{Dataset: "cifar10", Graph: tinyGraph(t, 3).Spec(), NumServers: 2},         // 400: conv has no consumer
		PredictRequest{Dataset: "cifar10", Model: "vgg11", Graph: custom, NumServers: 2},         // 400: both
		PredictRequest{Dataset: "cifar10", Model: "resnet50", NumServers: 2, ServerSpec: "nope"}, // 400: unknown spec
	)
	wantCodes := map[int]int{}
	for i := len(reqs) - 7; i < len(reqs); i++ {
		wantCodes[i] = http.StatusBadRequest
	}
	wantCodes[len(reqs)-5] = http.StatusNotFound
	wantCodes[len(reqs)-4] = http.StatusServiceUnavailable

	items, err := serveBatch(h, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		var single itemReply
		code, err := serveJSON(h, "/v1/predict", req, &single)
		if err != nil {
			t.Fatal(err)
		}
		item := items[i]
		if want := wantCodes[i]; item.Code != want || (want == 0) != (item.Error == "") {
			t.Fatalf("item %d: code %d %q, want %d", i, item.Code, item.Error, want)
		}
		if item.Code == 0 {
			if code != http.StatusOK || item.PredictResponse != single.PredictResponse ||
				math.Float64bits(item.PredictedSeconds) != math.Float64bits(single.PredictedSeconds) {
				t.Errorf("item %d: batch %+v, /v1/predict %d %+v", i, item.PredictResponse, code, single.PredictResponse)
			}
			continue
		}
		if code != item.Code || single.Error != item.Error {
			t.Errorf("item %d: batch %d %q, /v1/predict %d %q", i, item.Code, item.Error, code, single.Error)
		}
	}

	// The items that priced, straight through each engine's PredictBatch.
	for _, e := range engines {
		ds, _ := dataset.Lookup(e.Dataset())
		var at []int
		var graphs []*graph.Graph
		var clusters []cluster.Cluster
		for i, req := range reqs {
			if req.Dataset != e.Dataset() || items[i].Code != 0 {
				continue
			}
			g, err := graph.FromSpec(custom)
			if req.Model != "" {
				g, err = graph.Build(req.Model, ds.GraphConfig())
			}
			if err != nil {
				t.Fatal(err)
			}
			spec := cluster.SpecGPUP100()
			if req.ServerSpec != "" {
				spec, _ = cluster.LookupSpec(req.ServerSpec)
			}
			at = append(at, i)
			graphs = append(graphs, g)
			clusters = append(clusters, cluster.Homogeneous(req.NumServers, spec))
		}
		res, err := e.PredictBatch(graphs, clusters)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range at {
			if res[k].Err != nil || math.Float64bits(res[k].Seconds) != math.Float64bits(items[i].PredictedSeconds) {
				t.Errorf("item %d (%s): engine PredictBatch (%v, %v), batch item %v", i, e.Dataset(), res[k].Seconds, res[k].Err, items[i].PredictedSeconds)
			}
		}
	}
}

// A sweep of one architecture the engine has never seen runs one GHN embed
// and adds one cache entry, however many items and workers there are.
func TestBatchResolveEmbedsSweepOnce(t *testing.T) {
	e := cheapEngine(t)
	ctrl := NewController(NewGHNRegistry(), e)
	h := ctrl.Handler()
	embeds := ctrl.Metrics().Histogram("ghn.embed.seconds", obs.LatencyBuckets())
	reqs := make([]PredictRequest, 16)
	for i := range reqs {
		reqs[i] = PredictRequest{Dataset: "cifar10", Model: "densenet121", NumServers: i + 1}
	}
	before, cached := embeds.Count(), e.EmbeddingCacheLen()
	items, err := serveBatch(h, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		if item.Code != 0 || item.PredictedSeconds <= 0 {
			t.Fatalf("item %d: %d %q %v", i, item.Code, item.Error, item.PredictedSeconds)
		}
	}
	if got, grew := embeds.Count()-before, e.EmbeddingCacheLen()-cached; got != 1 || grew != 1 {
		t.Fatalf("16-item sweep of one cold architecture: %d GHN embeds, cache grew by %d; want 1 and 1", got, grew)
	}
}

// Concurrent batches naming the same architectures share nothing across
// requests but each shares its graphs between its own workers; under -race
// this exercises those read-only graphs, and every item still equals a
// serial Predict on a twin engine.
func TestBatchResolveConcurrentShared(t *testing.T) {
	h := NewController(NewGHNRegistry(), cheapEngine(t)).Handler()
	twin := cheapEngine(t)
	models := []string{"resnet18", "vgg11", "squeezenet1_1", "mobilenet_v2"}
	custom := graph.RandomGraph(tensor.NewRNG(5), graph.DefaultConfig())
	want := func(req PredictRequest) float64 {
		g := custom
		if req.Model != "" {
			g = graph.MustBuild(req.Model, dataset.CIFAR10().GraphConfig())
		}
		secs, err := twin.Predict(g, cluster.Homogeneous(req.NumServers, cluster.SpecGPUP100()))
		if err != nil {
			t.Error(err)
		}
		return secs
	}

	const goroutines, batches = 6, 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var reqs []PredictRequest
				for i := 0; i < 10; i++ {
					reqs = append(reqs, PredictRequest{Dataset: "cifar10", Model: models[(w+b+i/3)%len(models)], NumServers: 1 + i})
				}
				reqs = append(reqs,
					PredictRequest{Dataset: "cifar10", Graph: custom.Spec(), NumServers: 2},
					PredictRequest{Dataset: "cifar10", Graph: custom.Spec(), NumServers: 4})
				items, err := serveBatch(h, reqs)
				if err != nil {
					errs <- err
					return
				}
				for i, item := range items {
					if item.Code != 0 || math.Float64bits(item.PredictedSeconds) != math.Float64bits(want(reqs[i])) {
						errs <- fmt.Errorf("worker %d batch %d item %d: %d %q %v, want %v", w, b, i, item.Code, item.Error, item.PredictedSeconds, want(reqs[i]))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
