package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/graph"
	"predictddl/internal/tensor"
)

// untrainedController wraps an untrained engine: the Task Checker and
// admission-control paths never reach the regressor, so these tests stay
// cheap and run in -short mode.
func untrainedController(t testing.TB) *Controller {
	t.Helper()
	return NewController(NewGHNRegistry(), untrainedEngine(t))
}

func postJSON(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestOversizedBodyRejected(t *testing.T) {
	ctrl := untrainedController(t)
	ctrl.SetLimits(1024, 4)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	big := []byte(fmt.Sprintf(`{"dataset":"cifar10","model":"resnet18","pad":%q}`,
		strings.Repeat("x", 4096)))
	for _, path := range []string{"/v1/predict", "/v1/predict/batch"} {
		resp := postJSON(t, srv.URL+path, big)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status = %d, want 413", path, resp.StatusCode)
		}
	}

	// A small body must still pass admission (it fails later, on the
	// unfitted regressor — anything but 413 proves the limit is body-sized).
	small, _ := json.Marshal(PredictRequest{Dataset: "cifar10", Model: "resnet18", NumServers: 1})
	resp := postJSON(t, srv.URL+"/v1/predict", small)
	resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Fatalf("small body rejected as oversized")
	}
}

func TestBatchItemCountLimit(t *testing.T) {
	ctrl := untrainedController(t)
	ctrl.SetLimits(1<<20, 4)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	mkBatch := func(n int) []byte {
		var b BatchRequest
		for i := 0; i < n; i++ {
			b.Requests = append(b.Requests, PredictRequest{Dataset: "cifar10", Model: "resnet18", NumServers: 1})
		}
		body, _ := json.Marshal(b)
		return body
	}

	resp := postJSON(t, srv.URL+"/v1/predict/batch", mkBatch(5))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("5-item batch over a 4-item cap: status = %d, want 413", resp.StatusCode)
	}
	resp = postJSON(t, srv.URL+"/v1/predict/batch", mkBatch(4))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("4-item batch at the cap: status = %d, want 200", resp.StatusCode)
	}
}

func TestSetLimitsRestoresDefaults(t *testing.T) {
	ctrl := untrainedController(t)
	ctrl.SetLimits(1, 1)
	ctrl.SetLimits(0, 0)
	body, items := ctrl.limits()
	if body != DefaultMaxBodyBytes || items != DefaultMaxBatchItems {
		t.Fatalf("limits after reset = (%d, %d), want defaults (%d, %d)",
			body, items, DefaultMaxBodyBytes, DefaultMaxBatchItems)
	}
}

// Status classification: an unknown dataset is the client's mistake (404),
// an empty live inventory is a degraded-but-retryable server state (503).
func TestPredictStatusClassification(t *testing.T) {
	ctrl := untrainedController(t)
	col, err := cluster.NewCollector("127.0.0.1:0", cluster.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ctrl.SetCollector(col) // attached but empty: no agent ever registers
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	cases := []struct {
		req  PredictRequest
		want int
	}{
		{PredictRequest{Dataset: "nope", Model: "resnet18", NumServers: 1}, http.StatusNotFound},
		{PredictRequest{Dataset: "cifar10", Model: "resnet18"}, http.StatusServiceUnavailable},
		{PredictRequest{Dataset: "cifar10", Model: "not-a-model", NumServers: 1}, http.StatusBadRequest},
	}
	for i, tc := range cases {
		body, _ := json.Marshal(tc.req)
		resp := postJSON(t, srv.URL+"/v1/predict", body)
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("case %d: error body not JSON: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("case %d: status = %d, want %d (error %q)", i, resp.StatusCode, tc.want, e["error"])
		}
		if e["error"] == "" {
			t.Errorf("case %d: empty error message", i)
		}
	}
}

// Batch responses stay 200 but each failed item carries the status code the
// same failure would produce on /v1/predict, so clients can triage per item.
func TestBatchItemCodes(t *testing.T) {
	ctrl := untrainedController(t)
	col, err := cluster.NewCollector("127.0.0.1:0", cluster.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ctrl.SetCollector(col)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	req := BatchRequest{Requests: []PredictRequest{
		{Dataset: "nope", Model: "resnet18", NumServers: 1},    // unknown dataset
		{Dataset: "cifar10", Model: "resnet18"},                // empty inventory
		{Dataset: "cifar10", Model: "x", NumServers: 1},        // bad input
		{Dataset: "cifar10", Model: "resnet18", NumServers: 1}, // unfitted regressor
	}}
	body, _ := json.Marshal(req)
	resp := postJSON(t, srv.URL+"/v1/predict/batch", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	want := []int{
		http.StatusNotFound,
		http.StatusServiceUnavailable,
		http.StatusBadRequest,
		http.StatusInternalServerError,
	}
	if len(br.Results) != len(want) {
		t.Fatalf("results = %d, want %d", len(br.Results), len(want))
	}
	for i, item := range br.Results {
		if item.Error == "" {
			t.Errorf("item %d: expected an error", i)
		}
		if item.Code != want[i] {
			t.Errorf("item %d: code = %d, want %d (error %q)", i, item.Code, want[i], item.Error)
		}
	}
}

// /v1/predict and a one-item /v1/predict/batch run the same predictOne
// body: a good request must come back with the same predicted_seconds bits,
// and every Task Checker failure class with the same code and message.
func TestPredictAndBatchItemParity(t *testing.T) {
	ctrl := NewController(NewGHNRegistry(), cheapEngine(t))
	col, err := cluster.NewCollector("127.0.0.1:0", cluster.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	ctrl.SetCollector(col) // attached but empty
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	cases := []struct {
		req  PredictRequest
		want int
	}{
		{PredictRequest{Dataset: "cifar10", Model: "resnet18", NumServers: 4}, http.StatusOK},
		{PredictRequest{Dataset: "cifar10", Graph: graph.RandomGraph(tensor.NewRNG(77), graph.DefaultConfig()).Spec(), NumServers: 2}, http.StatusOK},
		{PredictRequest{Dataset: "cifar10", Graph: tinyGraph(t, 3).Spec(), NumServers: 2}, http.StatusBadRequest}, // conv has no consumer
		{PredictRequest{Dataset: "cifar10", Model: "not-a-model", NumServers: 1}, http.StatusBadRequest},
		{PredictRequest{Dataset: "nope", Model: "resnet18", NumServers: 1}, http.StatusNotFound},
		{PredictRequest{Dataset: "cifar10", Model: "resnet18"}, http.StatusServiceUnavailable},
	}
	for i, tc := range cases {
		body, _ := json.Marshal(tc.req)
		resp := postJSON(t, srv.URL+"/v1/predict", body)
		var single struct {
			PredictResponse
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&single); err != nil {
			t.Fatalf("case %d: /v1/predict body: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("case %d: /v1/predict = %d, want %d (%s)", i, resp.StatusCode, tc.want, single.Error)
		}

		body, _ = json.Marshal(BatchRequest{Requests: []PredictRequest{tc.req}})
		resp = postJSON(t, srv.URL+"/v1/predict/batch", body)
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || len(br.Results) != 1 {
			t.Fatalf("case %d: batch body: %v (%d results)", i, err, len(br.Results))
		}
		resp.Body.Close()
		item := br.Results[0]

		if tc.want == http.StatusOK {
			if item.Code != 0 || item.Error != "" {
				t.Fatalf("case %d: batch item failed: %d %q", i, item.Code, item.Error)
			}
			if item.PredictResponse != single.PredictResponse {
				t.Errorf("case %d: batch item %+v != single %+v", i, item.PredictResponse, single.PredictResponse)
			}
			if math.Float64bits(item.PredictedSeconds) != math.Float64bits(single.PredictedSeconds) || item.PredictedSeconds <= 0 {
				t.Errorf("case %d: predicted_seconds bits differ: batch %v, single %v", i, item.PredictedSeconds, single.PredictedSeconds)
			}
			continue
		}
		if item.Code != tc.want || item.Error != single.Error || item.Error == "" {
			t.Errorf("case %d: batch item (%d, %q) != single (%d, %q)", i, item.Code, item.Error, resp.StatusCode, single.Error)
		}
	}
}
