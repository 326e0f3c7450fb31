package core

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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
	if l.TryAcquire() {
		t.Fatal("limiter admitted past the cap after reuse")
	}

	// A non-positive limit admits everything.
	if !NewInflightLimiter(0).TryAcquire() {
		t.Fatal("zero-limit limiter rejected")
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
