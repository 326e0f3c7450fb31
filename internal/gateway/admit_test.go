package gateway_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predictddl/internal/gateway"
	"predictddl/internal/load"
)

// Both front doors admit bodies through core.Admit, so a body gets the same
// status and the same words from the controller and from the gateway in
// front of it. Before they shared it, the controller's streaming decoder
// stopped after the first value: the trailing-bytes rows below answered 404
// there (the dataset is unknown) and 400/413 at the gateway.
func TestFrontDoorsAgreeOnBodies(t *testing.T) {
	const maxBody = 80
	ctrl, err := load.NewSyntheticController(1, "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetLimits(maxBody, 4)
	replica := httptest.NewServer(ctrl.Handler())
	defer replica.Close()
	gw, err := gateway.New(gateway.Options{Replicas: []string{replica.URL}, Seed: 1, MaxBatchItems: 4, MaxBodyBytes: maxBody})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	const unknown = `{"dataset":"nope","model":"resnet18","num_servers":2}`
	const item = `{"dataset":"nope","model":"x","num_servers":1}`
	cases := []struct {
		name, path, body string
		status           int
		text             string
	}{
		{"garbage after value", "/v1/predict", unknown + ` garbage`, http.StatusBadRequest,
			"invalid JSON: invalid character 'g' after top-level value"},
		{"second value", "/v1/predict", unknown + `{"x":1}`, http.StatusBadRequest,
			"invalid JSON: invalid character '{' after top-level value"},
		{"trailing bytes past the cap", "/v1/predict", unknown + strings.Repeat(" ", 200), http.StatusRequestEntityTooLarge,
			"invalid request body: http: request body too large"},
		{"trailing whitespace", "/v1/predict", unknown + " \n", http.StatusNotFound, ""},
		{"truncated", "/v1/predict", unknown[:20], http.StatusBadRequest, "invalid JSON: unexpected EOF"},
		{"empty", "/v1/predict", ``, http.StatusBadRequest, "invalid JSON: EOF"},
		{"one value past the cap", "/v1/predict", `{"dataset":"` + strings.Repeat("x", maxBody) + `"}`, http.StatusRequestEntityTooLarge,
			"invalid request body: http: request body too large"},
		{"wrong kind", "/v1/predict", `[]`, http.StatusBadRequest,
			"invalid JSON: json: cannot unmarshal array into Go value of type core.PredictRequest"},
		{"batch garbage after value", "/v1/predict/batch", `{"requests":[` + item + `]} x`, http.StatusBadRequest,
			"invalid JSON: invalid character 'x' after top-level value"},
		{"batch past the cap", "/v1/predict/batch", `{"requests":[` + item + `,` + item + `]}`, http.StatusRequestEntityTooLarge,
			"invalid request body: http: request body too large"},
		{"batch ok", "/v1/predict/batch", `{"requests":[` + item + `]}`, http.StatusOK, ""},
	}
	post := func(base string, path, body string) (int, string) {
		t.Helper()
		resp, reply := postJSON(t, base+path, body)
		var r struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(reply, &r); err != nil {
			t.Fatalf("POST %s %q: status %d, undecodable reply %q", path, body, resp.StatusCode, reply)
		}
		return resp.StatusCode, r.Error
	}
	for _, tc := range cases {
		ctrlCode, ctrlText := post(replica.URL, tc.path, tc.body)
		gwCode, gwText := post(front.URL, tc.path, tc.body)
		if ctrlCode != gwCode || ctrlText != gwText {
			t.Errorf("%s: controller %d %q, gateway %d %q", tc.name, ctrlCode, ctrlText, gwCode, gwText)
		}
		if ctrlCode != tc.status || (tc.text != "" && ctrlText != tc.text) {
			t.Errorf("%s: %d %q, want %d %q", tc.name, ctrlCode, ctrlText, tc.status, tc.text)
		}
	}
}
