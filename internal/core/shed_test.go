package core

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"predictddl/internal/cluster"
)

func TestInflightLimiterBasics(t *testing.T) {
	l := NewInflightLimiter(2)
	if !l.TryAcquire() || !l.TryAcquire() {
		t.Fatal("limiter rejected admissions under the cap")
	}
	if l.TryAcquire() {
		t.Fatal("limiter admitted past the cap")
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("released slot not reusable")
	}
	if got := l.Inflight(); got != 2 {
		t.Fatalf("Inflight() = %d, want 2", got)
	}

	// Unlimited modes: non-positive limits and the nil limiter both admit.
	if !NewInflightLimiter(0).TryAcquire() {
		t.Fatal("zero-limit limiter rejected")
	}
	var nilLim *InflightLimiter
	if !nilLim.TryAcquire() {
		t.Fatal("nil limiter rejected")
	}
	nilLim.Release() // must not panic

	// SetLimit tightens without evicting: both holders stay, new ones wait.
	l.SetLimit(1)
	if l.TryAcquire() {
		t.Fatal("admitted with 2 inflight over a limit of 1")
	}
	l.Release()
	if l.TryAcquire() {
		t.Fatal("admitted with 1 inflight at a limit of 1")
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("empty limiter rejected after tightening")
	}
}

// TestControllerShedsPastMaxInflight holds the single admission slot open
// with a stalled request and asserts the next one sheds with 503 +
// Retry-After while introspection endpoints keep answering.
func TestControllerShedsPastMaxInflight(t *testing.T) {
	c := NewController(NewGHNRegistry(), cheapEngine(t))
	c.SetMaxInflight(1)

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	const probe = `{"dataset":"cifar10","model":"resnet18","num_servers":2}`

	// Occupy the single slot via a request whose body never arrives: the
	// handler blocks in decode while holding the shed slot.
	pr, pw := io.Pipe()
	// Unblock the stalled connection on every exit path — a t.Fatal above
	// the explicit close would otherwise wedge the deferred srv.Close.
	defer pw.CloseWithError(io.ErrUnexpectedEOF)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/predict", pr)
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Send no probe until the stalled request holds the slot: a probe that
	// wins the race takes the slot itself, the stalled request is shed and
	// leaves, and nothing ever saturates the controller.
	waitInflight(t, c, 1)
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("probe with the slot held = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("shed response Retry-After = %q, want \"1\"", got)
	}

	// Introspection endpoints are never shed.
	for _, path := range []string{"/v1/status", "/v1/models", "/v1/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while saturated = %d, want 200", path, resp.StatusCode)
		}
	}

	// The shed counter moved, and the shed 503 landed in the same
	// per-status request counter family as every other response.
	snap := c.Metrics().Snapshot()
	if got := snap.Counter("http.shed.predict"); got < 1 {
		t.Fatalf("http.shed.predict = %d, want >= 1", got)
	}
	if got := snap.Counter("http.requests.predict.503"); got < 1 {
		t.Fatalf("http.requests.predict.503 = %d, want >= 1", got)
	}

	// Releasing the slot restores service.
	pw.CloseWithError(io.ErrUnexpectedEOF)
	wg.Wait()
	// The client can see its reply before the handler's deferred Release
	// runs, so wait for the slot itself rather than retrying probes.
	waitInflight(t, c, 0)
	resp, err = http.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader(probe))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after release = %d, want 200", resp.StatusCode)
	}
}

// waitInflight blocks until the controller's admission limiter holds
// exactly want requests. The deadline only bounds a broken build; a passing
// run waits on the event, not on who wins a scheduling race.
func waitInflight(t *testing.T, c *Controller, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.shedLimiter().Inflight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("limiter inflight = %d, want %d", c.shedLimiter().Inflight(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatusLiveHostsAndInventoryEndpoint: /v1/status names live hosts and
// /v1/inventory serves wire-form entries; both empty-but-valid without a
// collector.
func TestStatusLiveHostsAndInventoryEndpoint(t *testing.T) {
	c := NewController(NewGHNRegistry(), cheapEngine(t))
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var st StatusResponse
	getJSON(t, srv.URL+"/v1/status", &st)
	if len(st.LiveHosts) != 0 {
		t.Fatalf("LiveHosts without collector = %v", st.LiveHosts)
	}
	var inv InventoryResponse
	getJSON(t, srv.URL+"/v1/inventory", &inv)
	if len(inv.Servers) != 0 {
		t.Fatalf("inventory without collector = %v", inv.Servers)
	}

	col, err := cluster.NewCollector("127.0.0.1:0", cluster.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	c.SetCollector(col)
	for _, host := range []string{"gpu-b", "gpu-a"} {
		agent, err := cluster.DialAgent(col.Addr(), host, cluster.SpecGPUP100())
		if err != nil {
			t.Fatal(err)
		}
		defer agent.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(col.Snapshot()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("agents never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	getJSON(t, srv.URL+"/v1/status", &st)
	if st.LiveServers != 2 || len(st.LiveHosts) != 2 ||
		st.LiveHosts[0] != "gpu-a" || st.LiveHosts[1] != "gpu-b" {
		t.Fatalf("status = %+v, want sorted hosts [gpu-a gpu-b]", st)
	}

	getJSON(t, srv.URL+"/v1/inventory", &inv)
	if len(inv.Servers) != 2 || inv.Servers[0].Hostname != "gpu-a" || inv.Servers[0].AgeMS < 0 {
		t.Fatalf("inventory = %+v", inv.Servers)
	}

	resp, err := http.Post(srv.URL+"/v1/inventory", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/inventory = %d, want 405", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
