package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func populatedRegistry() *Registry {
	r := NewRegistry(nil)
	r.Counter("http.requests.predict.200").Add(3)
	r.Gauge("http.inflight").Set(1)
	h := r.Histogram("http.latency.predict", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5) // overflow
	return r
}

func TestJSONHandlerRoundTrip(t *testing.T) {
	srv := httptest.NewServer(Handler(populatedRegistry()))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Counter("http.requests.predict.200") != 3 {
		t.Fatalf("counter lost in round trip: %+v", s.Counters)
	}
	h, ok := s.HistogramByName("http.latency.predict")
	if !ok || h.Count != 2 {
		t.Fatalf("histogram lost: %+v", s.Histograms)
	}
	// The overflow bucket's +Inf bound must survive JSON (encoded "+Inf").
	last := h.Buckets[len(h.Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.Count != 1 {
		t.Fatalf("overflow bucket = %+v", last)
	}
}

func TestJSONHandlerMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(nil)))
	defer srv.Close()
	resp, err := http.Post(srv.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestTextHandlerDump(t *testing.T) {
	srv := httptest.NewServer(TextHandler(populatedRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"http.requests.predict.200", "http.inflight",
		"http.latency.predict", "count=2", "le=+Inf 1", "le=0.001 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("text dump missing %q:\n%s", want, text)
		}
	}
}

// The controller and the gateway both reply and label their per-status
// counters through these helpers, so their wire bytes and the recorder's
// "first status wins, silence means 200" rule are pinned here once.
func TestStatusRecorderAndReplyHelpers(t *testing.T) {
	cases := []struct {
		name     string
		handle   func(http.ResponseWriter)
		wantCode int
		wantBody string
	}{
		{"silent handler", func(http.ResponseWriter) {}, http.StatusOK, ""},
		{"WriteJSON", func(w http.ResponseWriter) { WriteJSON(w, map[string]int{"n": 1}) },
			http.StatusOK, `{"n":1}` + "\n"},
		{"HTTPError", func(w http.ResponseWriter) { HTTPError(w, http.StatusTeapot, "no") },
			http.StatusTeapot, `{"error":"no"}` + "\n"},
		{"first status wins", func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusNotFound)
			w.WriteHeader(http.StatusOK)
		}, http.StatusNotFound, ""},
	}
	for _, tc := range cases {
		inner := httptest.NewRecorder()
		rec := &StatusRecorder{ResponseWriter: inner}
		tc.handle(rec)
		if rec.Code() != tc.wantCode || inner.Code != tc.wantCode {
			t.Errorf("%s: recorded %d, wrote %d, want %d", tc.name, rec.Code(), inner.Code, tc.wantCode)
		}
		if got := inner.Body.String(); got != tc.wantBody {
			t.Errorf("%s: body %q, want %q", tc.name, got, tc.wantBody)
		}
		if tc.wantBody != "" && inner.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: content-type %q", tc.name, inner.Header().Get("Content-Type"))
		}
	}
}
