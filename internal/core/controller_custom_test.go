package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/tensor"
)

// TestControllerCustomGraphPrediction exercises the general prediction
// path: a custom (non-zoo) architecture submitted as a computational-graph
// spec over HTTP.
func TestControllerCustomGraphPrediction(t *testing.T) {
	e, _ := sharedEngine(t)
	ctrl := NewController(NewGHNRegistry(), e)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	custom := graph.RandomGraph(tensor.NewRNG(77), graph.DefaultConfig())
	body, err := json.Marshal(PredictRequest{
		Dataset:    "cifar10",
		Graph:      custom.Spec(),
		NumServers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.PredictedSeconds <= 0 {
		t.Fatalf("predicted %v", pr.PredictedSeconds)
	}
	if pr.Model != custom.Name {
		t.Fatalf("response model = %q, want graph name %q", pr.Model, custom.Name)
	}
}

func TestControllerRejectsModelPlusGraph(t *testing.T) {
	e, _ := sharedEngine(t)
	ctrl := NewController(NewGHNRegistry(), e)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	custom := graph.RandomGraph(tensor.NewRNG(78), graph.DefaultConfig())
	body, _ := json.Marshal(PredictRequest{
		Dataset: "cifar10", Model: "resnet18", Graph: custom.Spec(), NumServers: 2,
	})
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestControllerRejectsInvalidCustomGraph(t *testing.T) {
	e, _ := sharedEngine(t)
	ctrl := NewController(NewGHNRegistry(), e)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	// Structurally invalid: a lone conv node with no input/output.
	body, _ := json.Marshal(PredictRequest{
		Dataset:    "cifar10",
		Graph:      &graph.Spec{Name: "bad", Nodes: []graph.NodeSpec{{Op: "conv"}}},
		NumServers: 2,
	})
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestControllerBatchEndpoint(t *testing.T) {
	e, _ := sharedEngine(t)
	ctrl := NewController(NewGHNRegistry(), e)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	req := BatchRequest{Requests: []PredictRequest{
		{Dataset: "cifar10", Model: "resnet18", NumServers: 4},
		{Dataset: "cifar10", Model: "no-such-model", NumServers: 4}, // fails per item
		{Dataset: "cifar10", Model: "vgg16", NumServers: 8},
	}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %d", len(br.Results))
	}
	if br.Results[0].PredictedSeconds <= 0 || br.Results[0].Error != "" {
		t.Fatalf("item 0 = %+v", br.Results[0])
	}
	if br.Results[1].Error == "" {
		t.Fatal("bad item did not carry an error")
	}
	if br.Results[2].PredictedSeconds <= 0 || br.Results[2].NumServers != 8 {
		t.Fatalf("item 2 = %+v", br.Results[2])
	}

	// Empty batch and wrong method are rejected outright.
	resp, err = http.Post(srv.URL+"/v1/batch", "application/json", bytes.NewReader([]byte(`{"requests":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch status = %d", resp.StatusCode)
	}
}

// The engine documents safety for concurrent use after training; hammer it
// from many goroutines (run under -race to verify).
func TestEngineConcurrentPredict(t *testing.T) {
	e, _ := sharedEngine(t)
	models := []string{"resnet18", "vgg16", "alexnet", "mobilenet_v2"}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := graph.Build(models[i%len(models)], graph.Config{})
			if err != nil {
				errs <- err
				return
			}
			if _, err := e.Predict(g, cluster.Homogeneous(1+i%8, cluster.SpecGPUP100())); err != nil {
				errs <- err
				return
			}
			if _, _, err := e.Confidence(g); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// shapedSpec is a valid four-node graph whose conv node has the given
// output shape.
func shapedSpec(channels, h, w int) *graph.Spec {
	return &graph.Spec{
		Name: "shaped",
		Nodes: []graph.NodeSpec{
			{Op: "input", OutChannels: 3, OutH: 8, OutW: 8},
			{Op: "conv", OutChannels: channels, OutH: h, OutW: w, Params: 108, FLOPs: 6912},
			{Op: "gap", OutChannels: 4, OutH: 1, OutW: 1},
			{Op: "output", OutChannels: 4},
		},
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}},
	}
}

// Regression test: a negative shape field used to pass FromSpec, embed as
// NaN (log1p of a negative) and come back as a 200 header with no body,
// because NaN has no JSON encoding. It is bad input (400), and so is an
// H×W area that overflows int (it wrapped negative and reached the same
// log1p, answered as a 500 server fault). The 500 for a non-finite
// prediction is TestControllerNonFinitePredictionIs500's.
func TestControllerRejectsNonFiniteShapes(t *testing.T) {
	ctrl := NewController(NewGHNRegistry(), cheapEngine(t))
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	cases := []struct {
		name     string
		spec     *graph.Spec
		want     int
		wantText string
	}{
		{"zero shape is legal", shapedSpec(4, 0, 0), http.StatusOK, ""},
		{"out_channels -5", shapedSpec(-5, 8, 8), http.StatusBadRequest, "graph: node 1 has negative shape"},
		{"out_channels -1", shapedSpec(-1, 8, 8), http.StatusBadRequest, "graph: node 1 has negative shape"},
		{"out_h -1", shapedSpec(4, -1, 8), http.StatusBadRequest, "graph: node 1 has negative shape"},
		{"out_w -1", shapedSpec(4, 8, -1), http.StatusBadRequest, "graph: node 1 has negative shape"},
		{"H×W overflows", shapedSpec(4, 3037000500, 3037000500), http.StatusBadRequest, "graph: node 1 has out_h × out_w (3037000500 × 3037000500) overflowing int"},
	}
	batch := BatchRequest{Requests: []PredictRequest{{Dataset: "cifar10", Model: "resnet18", NumServers: 2}}}
	for _, tc := range cases {
		req := PredictRequest{Dataset: "cifar10", Graph: tc.spec, NumServers: 2}
		batch.Requests = append(batch.Requests, req)
		body, _ := json.Marshal(req)
		resp := postJSON(t, srv.URL+"/v1/predict", body)
		var reply struct {
			PredictedSeconds float64 `json:"predicted_seconds"`
			Error            string  `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("%s: status %d with an undecodable body: %v", tc.name, resp.StatusCode, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want || !strings.Contains(reply.Error, tc.wantText) {
			t.Errorf("%s: %d %q, want %d %q", tc.name, resp.StatusCode, reply.Error, tc.want, tc.wantText)
		}
		if (tc.want == http.StatusOK) != (reply.PredictedSeconds != 0) {
			t.Errorf("%s: status %d with predicted_seconds %v", tc.name, resp.StatusCode, reply.PredictedSeconds)
		}
	}

	// The same graphs as items of one batch: the bad ones fail alone.
	batch.Requests = append(batch.Requests, PredictRequest{Dataset: "cifar10", Model: "vgg11", NumServers: 4})
	body, _ := json.Marshal(batch)
	resp := postJSON(t, srv.URL+"/v1/predict/batch", body)
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body error %v", resp.StatusCode, err)
	}
	if len(br.Results) != len(cases)+2 {
		t.Fatalf("batch: %d results for %d items", len(br.Results), len(cases)+2)
	}
	for i, item := range br.Results {
		want, wantText := 0, ""
		if i >= 1 && i <= len(cases) && cases[i-1].want != http.StatusOK {
			want, wantText = cases[i-1].want, cases[i-1].wantText
		}
		if item.Code != want || !strings.Contains(item.Error, wantText) || (want == 0) != (item.PredictedSeconds != 0) {
			t.Errorf("batch item %d: code %d, error %q, predicted %v; want code %d %q", i, item.Code, item.Error, item.PredictedSeconds, want, wantText)
		}
	}
}

// stubRegressor answers every feature row with the same value.
type stubRegressor float64

func (s stubRegressor) Name() string                        { return "stub" }
func (s stubRegressor) Fit(*tensor.Matrix, []float64) error { return nil }
func (s stubRegressor) Predict([]float64) (float64, error)  { return float64(s), nil }

// A prediction JSON cannot carry (+Inf, NaN; -Inf is floored) is a 500
// with a message, on /v1/predict and on every batch item alike — never a
// 200 header with no body.
func TestControllerNonFinitePredictionIs500(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		e := NewInferenceEngine("cifar10", ghn.New(ghn.Config{HiddenDim: 8}, tensor.NewRNG(1)), stubRegressor(v))
		srv := httptest.NewServer(NewController(NewGHNRegistry(), e).Handler())
		req := PredictRequest{Dataset: "cifar10", Model: "resnet18", NumServers: 2}
		wantText := fmt.Sprintf("core: non-finite prediction %v for dataset %q", v, "cifar10")

		body, _ := json.Marshal(req)
		resp := postJSON(t, srv.URL+"/v1/predict", body)
		var reply struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("%v: status %d with an undecodable body: %v", v, resp.StatusCode, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || reply.Error != wantText {
			t.Errorf("%v: /v1/predict = %d %q, want 500 %q", v, resp.StatusCode, reply.Error, wantText)
		}

		body, _ = json.Marshal(BatchRequest{Requests: []PredictRequest{req, req}})
		resp = postJSON(t, srv.URL+"/v1/predict/batch", body)
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != 2 {
			t.Fatalf("%v: batch status %d, %d results, body error %v", v, resp.StatusCode, len(br.Results), err)
		}
		resp.Body.Close()
		for i, item := range br.Results {
			if item.Code != http.StatusInternalServerError || item.Error != wantText || item.PredictedSeconds != 0 {
				t.Errorf("%v: batch item %d = %d %q %v, want 500 %q", v, i, item.Code, item.Error, item.PredictedSeconds, wantText)
			}
		}
		srv.Close()
	}
}
