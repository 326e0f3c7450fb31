package obs_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/gateway"
	"predictddl/internal/load"
	"predictddl/internal/obs"
)

// mount is one place obs.Middleware is mounted: the controller's mux, or
// the gateway's in front of a shard.
type mount struct {
	name     string
	handler  http.Handler
	reg      *obs.Registry
	idPrefix string
	// shardSaw returns the X-Request-ID of the last request that reached
	// the shard behind a gateway; nil on the controller mount.
	shardSaw func() string
}

const testBodyCap = 4096

// controller builds a synthetic controller with a small body cap and an
// attached-but-empty collector, so a request without num_servers is a 503.
func controller(t *testing.T) *core.Controller {
	t.Helper()
	ctrl, err := load.NewSyntheticController(1, "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetLimits(testBodyCap, 0)
	col, err := cluster.NewCollector("127.0.0.1:0", cluster.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	ctrl.SetCollector(col)
	return ctrl
}

func mounts(t *testing.T) []mount {
	t.Helper()
	ctrl := controller(t)

	var mu sync.Mutex
	var lastID string
	inner := controller(t).Handler()
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		lastID = r.Header.Get(obs.RequestIDHeader)
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(shard.Close)
	gw, err := gateway.New(gateway.Options{Replicas: []string{shard.URL}, MaxBodyBytes: testBodyCap})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())

	return []mount{
		{name: "controller", handler: ctrl.Handler(), reg: ctrl.Metrics(), idPrefix: "req-"},
		{name: "gateway", handler: gw.Handler(), reg: gw.Metrics(), idPrefix: "gwreq-", shardSaw: func() string {
			mu.Lock()
			defer mu.Unlock()
			return lastID
		}},
	}
}

// TestMiddlewareOneContractTwoMounts drives the same scripted requests
// through Controller.Handler() and Gateway.Handler() and holds both to the
// one middleware contract: request-ID echo / mint / sanitise, one
// http.requests.<endpoint>.<code> increment and one latency observation per
// request, http.inflight back to zero — and, through the gateway, the same
// ID arriving at the shard. Requests go through ServeHTTP directly so the
// middleware has finished by the time each call returns.
func TestMiddlewareOneContractTwoMounts(t *testing.T) {
	const good = `{"dataset":"cifar10","model":"resnet18","num_servers":2}`
	cases := []struct {
		name, method, path, body string
		clientID                 string // "" sends none
		wantID                   string // "" means a minted one
		code                     int
		forwarded                bool // reaches the shard behind a gateway
	}{
		{"ok, client id echoed", http.MethodPost, "/v1/predict", good, "client-42", "client-42", 200, true},
		{"ok, id minted", http.MethodPost, "/v1/predict", good, "", "", 200, true},
		{"ok, bad id replaced", http.MethodPost, "/v1/predict", good, "bad id", "", 200, true},
		{"malformed JSON", http.MethodPost, "/v1/predict", "{", "c-400", "c-400", 400, false},
		{"unknown dataset", http.MethodPost, "/v1/predict", `{"dataset":"nope","model":"resnet18","num_servers":2}`, "c-404", "c-404", 404, true},
		{"wrong method", http.MethodGet, "/v1/predict", "", "", "", 405, false},
		{"oversized body", http.MethodPost, "/v1/predict", `{"dataset":"` + strings.Repeat("x", 2*testBodyCap) + `"}`, "c-413", "c-413", 413, false},
		{"empty inventory", http.MethodPost, "/v1/predict", `{"dataset":"cifar10","model":"resnet18"}`, "c-503", "c-503", 503, true},
		{"batch", http.MethodPost, "/v1/predict/batch", `{"requests":[` + good + `]}`, "c-batch", "c-batch", 200, true},
		{"batch, legacy alias", http.MethodPost, "/v1/batch", `{"requests":[` + good + `]}`, "", "", 200, true},
		{"empty batch", http.MethodPost, "/v1/predict/batch", `{"requests":[]}`, "", "", 400, false},
	}
	for _, m := range mounts(t) {
		t.Run(m.name, func(t *testing.T) {
			wantCount := map[string]uint64{}   // http.requests.<endpoint>.<code>
			wantLatency := map[string]uint64{} // http.latency.<endpoint>.seconds
			minted := map[string]bool{}
			for _, tc := range cases {
				req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
				if tc.clientID != "" {
					req.Header.Set(obs.RequestIDHeader, tc.clientID)
				}
				rec := httptest.NewRecorder()
				m.handler.ServeHTTP(rec, req)

				if rec.Code != tc.code {
					t.Fatalf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.code, rec.Body)
				}
				id := rec.Header().Get(obs.RequestIDHeader)
				switch {
				case tc.wantID != "":
					if id != tc.wantID {
						t.Errorf("%s: echoed ID %q, want %q", tc.name, id, tc.wantID)
					}
				case !strings.HasPrefix(id, m.idPrefix) || minted[id]:
					t.Errorf("%s: ID %q, want a fresh %sNNNNNN", tc.name, id, m.idPrefix)
				}
				minted[id] = true
				if m.shardSaw != nil && tc.forwarded {
					if got := m.shardSaw(); got != id {
						t.Errorf("%s: shard saw ID %q, client got %q", tc.name, got, id)
					}
				}

				endpoint := "predict"
				if tc.path != "/v1/predict" {
					endpoint = "batch"
				}
				wantCount[fmt.Sprintf("http.requests.%s.%d", endpoint, tc.code)]++
				wantLatency["http.latency."+endpoint+".seconds"]++
			}

			snap := m.reg.Snapshot()
			for name, want := range wantCount {
				if got := snap.Counter(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			for _, c := range snap.Counters {
				if strings.HasPrefix(c.Name, "http.requests.") && wantCount[c.Name] == 0 {
					t.Errorf("unexpected counter %s = %d", c.Name, c.Value)
				}
			}
			for name, want := range wantLatency {
				if h, ok := snap.HistogramByName(name); !ok || h.Count != want {
					t.Errorf("%s count = %d (present %v), want %d", name, h.Count, ok, want)
				}
			}
			if got := snap.Gauge("http.inflight"); got != 0 {
				t.Errorf("http.inflight = %d after the last request, want 0", got)
			}
		})
	}
}
