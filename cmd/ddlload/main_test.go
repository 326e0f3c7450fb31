package main

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
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
		"-find-max-rps=false", "-out", filepath.Join(t.TempDir(), "serve.json"),
	})
	if err == nil {
		t.Fatal("run returned nil for a target whose every response broke its contract")
	}
	if !strings.Contains(err.Error(), "status contract") {
		t.Fatalf("run failed for another reason: %v", err)
	}
}
