package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predictddl/internal/load"
)

// A target that answers 500 to everything breaks every scenario's status
// contract; run must fail instead of printing "unexpected N" and exiting 0.
func TestRunFailsOnBrokenStatusContract(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()

	err := run([]string{
		"-addr", srv.URL, "-rps", "50", "-duration", "200ms", "-closed-requests", "10",
		"-out", filepath.Join(t.TempDir(), "serve.json"),
	})
	if err == nil {
		t.Fatal("run returned nil for a target whose every response broke its contract")
	}
	if !strings.Contains(err.Error(), "status contract") {
		t.Fatalf("run failed for another reason: %v", err)
	}
}

// Both in-process topologies `make loadbench` drives must hold the status
// contract and reconcile with the server's own counters, and the report
// must say so.
func TestSelfRunWritesReport(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"controller", nil},
		{"gateway", []string{"-gateway", "-gateway-replicas", "2",
			"-mix", "zoo=40,batch=10,custom=10,gateway=30,notfound=5,oversized=5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "serve.json")
			args := append([]string{"-self", "-seed", "1", "-rps", "50", "-duration", "300ms",
				"-closed-requests", "20", "-out", out}, tc.extra...)
			if err := run(args); err != nil {
				t.Fatalf("run: %v", err)
			}
			buf, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var rep load.Report
			if err := json.Unmarshal(buf, &rep); err != nil {
				t.Fatalf("report does not decode: %v", err)
			}
			for _, r := range []*load.RunReport{rep.Open, rep.Closed} {
				if r == nil {
					t.Fatalf("report lacks a run: open=%v closed=%v", rep.Open != nil, rep.Closed != nil)
				}
				if r.Unexpected != 0 {
					t.Errorf("%s run: %d unexpected samples: %+v", r.Mode, r.Unexpected, r.Statuses)
				}
				if len(r.Server) == 0 {
					t.Errorf("%s run: no server cross-check", r.Mode)
				}
				for _, c := range r.Server {
					if !c.CountsMatch {
						t.Errorf("%s run: server cross-check mismatch: %+v", r.Mode, c)
					}
				}
			}
			if gw := tc.extra != nil; gw != (rep.Gateway != nil) {
				t.Errorf("gateway section present = %v, want %v", rep.Gateway != nil, gw)
			}
		})
	}
}
