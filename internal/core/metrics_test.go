package core

import (
	"bytes"
	"encoding/json"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"predictddl/internal/obs"
)

// get issues a GET and fails the test on transport errors.
func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMetricsExactBucketCounts drives a scripted request sequence against a
// fake-clock registry and asserts the exact per-bucket histogram counts
// (DESIGN.md §9): the middleware reads the clock exactly twice per untraced
// request, so with a fixed step every request's latency is the step itself
// and lands in one known bucket.
func TestMetricsExactBucketCounts(t *testing.T) {
	fc := obs.NewFakeClock(time.Unix(1700000000, 0))
	reg := obs.NewRegistry(fc)
	ctrl := newController(reg, NewGHNRegistry(), untrainedEngine(t))
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	// Two status requests at 3 ms each (→ the le=0.005 bucket), one at
	// 200 µs (→ le=0.00025).
	fc.SetStep(3 * time.Millisecond)
	for i := 0; i < 2; i++ {
		resp := get(t, srv.URL+"/v1/status")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status request %d: %d", i, resp.StatusCode)
		}
	}
	fc.SetStep(200 * time.Microsecond)
	get(t, srv.URL+"/v1/status").Body.Close()

	// A malformed predict body (400) and a GET on a POST endpoint (405),
	// both at 30 ms (→ le=0.05 in the predict histogram).
	fc.SetStep(30 * time.Millisecond)
	resp := postJSON(t, srv.URL+"/v1/predict", []byte("{"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed predict: %d, want 400", resp.StatusCode)
	}
	resp = get(t, srv.URL+"/v1/predict")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: %d, want 405", resp.StatusCode)
	}

	// A two-item batch whose items fail at the Task Checker (unknown
	// dataset → per-item 404, no embeds, no extra clock reads): the batch
	// response is 200 and the size histogram records one observation of 2.
	batch, _ := json.Marshal(BatchRequest{Requests: []PredictRequest{
		{Dataset: "nope", Model: "resnet18", NumServers: 1},
		{Dataset: "nope", Model: "resnet18", NumServers: 1},
	}})
	resp = postJSON(t, srv.URL+"/v1/predict/batch", batch)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d, want 200", resp.StatusCode)
	}

	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"http.requests.status.200":  3,
		"http.requests.predict.400": 1,
		"http.requests.predict.405": 1,
		"http.requests.batch.200":   1,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if got := snap.Gauge("http.inflight"); got != 0 {
		t.Errorf("http.inflight = %d after quiesce, want 0", got)
	}

	// Exact bucket counts, every bucket checked — the scripted latencies
	// must land precisely where the fixed bounds say.
	assertBuckets(t, snap, "http.latency.status.seconds", 3,
		map[float64]uint64{0.00025: 1, 0.005: 2})
	assertBuckets(t, snap, "http.latency.predict.seconds", 2,
		map[float64]uint64{0.05: 2})
	assertBuckets(t, snap, "http.batch.size", 1,
		map[float64]uint64{2: 1})

	// The introspection endpoints serve the same registry without counting
	// themselves: scraping must not perturb what it reports.
	mresp := get(t, srv.URL+"/v1/metrics")
	defer mresp.Body.Close()
	var served obs.Snapshot
	if err := json.NewDecoder(mresp.Body).Decode(&served); err != nil {
		t.Fatalf("decode /v1/metrics: %v", err)
	}
	if got := served.Counter("http.requests.status.200"); got != 3 {
		t.Errorf("/v1/metrics status.200 = %d, want 3", got)
	}
	for _, c := range served.Counters {
		if strings.HasPrefix(c.Name, "http.requests.metrics") {
			t.Errorf("scraping /v1/metrics counted itself: %s", c.Name)
		}
	}
	vresp := get(t, srv.URL+"/debug/vars")
	defer vresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(vresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "http.requests.status.200") {
		t.Errorf("/debug/vars dump missing request counter:\n%s", buf.String())
	}
}

// assertBuckets checks a snapshot histogram's total count and every bucket:
// bounds listed in want must hold exactly that many observations, all
// others exactly zero.
func assertBuckets(t *testing.T, snap obs.Snapshot, name string, count uint64, want map[float64]uint64) {
	t.Helper()
	hv, ok := snap.HistogramByName(name)
	if !ok {
		t.Errorf("histogram %s not in snapshot", name)
		return
	}
	if hv.Count != count {
		t.Errorf("%s count = %d, want %d", name, hv.Count, count)
	}
	for _, b := range hv.Buckets {
		if b.Count != want[b.UpperBound] {
			t.Errorf("%s bucket le=%g count = %d, want %d",
				name, b.UpperBound, b.Count, want[b.UpperBound])
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	ctrl := untrainedController(t)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	// A well-formed client ID is echoed verbatim.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/status", nil)
	req.Header.Set(obs.RequestIDHeader, "client-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "client-42" {
		t.Errorf("valid client ID: echoed %q, want client-42", got)
	}

	// A malformed ID (embedded space) is replaced with a minted one.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/v1/status", nil)
	req.Header.Set(obs.RequestIDHeader, "bad id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); !strings.HasPrefix(got, "req-") {
		t.Errorf("invalid client ID: echoed %q, want a minted req-NNNNNN", got)
	}
}

// TestTracePredict exercises the opt-in ?trace=1 path end-to-end on a
// trained engine: the response carries the stage breakdown, the stages run
// on the fake clock (decode and check consume exactly two reads each, so
// their reported seconds equal the step), and the server-side trace log
// receives the same report.
func TestTracePredict(t *testing.T) {
	e, _ := sharedEngine(t)
	fc := obs.NewFakeClock(time.Unix(1700000000, 0))
	fc.SetStep(time.Millisecond)
	ctrl := newController(obs.NewRegistry(fc), NewGHNRegistry(), e)
	var logBuf syncBuffer
	ctrl.SetTraceLog(log.New(&logBuf, "", 0))
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	body, _ := json.Marshal(PredictRequest{
		Dataset: "cifar10", Model: "resnet18",
		NumServers: 4, ServerSpec: "cloudlab-p100",
	})

	// Untraced: no breakdown in the response.
	resp := postJSON(t, srv.URL+"/v1/predict", body)
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.Trace != nil {
		t.Fatalf("untraced request returned a trace: %+v", pr.Trace)
	}

	// Traced: full stage timeline, ID matching the response header.
	resp = postJSON(t, srv.URL+"/v1/predict?trace=1", body)
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced predict: %d", resp.StatusCode)
	}
	if pr.Trace == nil {
		t.Fatal("?trace=1 response carries no trace")
	}
	if id := resp.Header.Get(obs.RequestIDHeader); pr.Trace.ID != id {
		t.Errorf("trace ID %q != response header %q", pr.Trace.ID, id)
	}
	var names []string
	for _, s := range pr.Trace.Stages {
		names = append(names, s.Name)
		if s.Seconds <= 0 {
			t.Errorf("stage %s: non-positive duration %g", s.Name, s.Seconds)
		}
	}
	if got, want := strings.Join(names, " "), "decode check embed regress"; got != want {
		t.Fatalf("stages = %q, want %q", got, want)
	}
	const step = 0.001
	for _, s := range pr.Trace.Stages[:2] { // decode, check: exactly one step each
		if math.Abs(s.Seconds-step) > 1e-12 {
			t.Errorf("stage %s = %gs on a %gs-step fake clock", s.Name, s.Seconds, step)
		}
	}
	if pr.Trace.TotalSeconds < step*float64(len(pr.Trace.Stages)) {
		t.Errorf("total %gs < sum of stages", pr.Trace.TotalSeconds)
	}

	// The middleware logs the trace after the handler returns; poll
	// briefly since the client can observe the response first.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(logBuf.String(), pr.Trace.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the log; log = %q", pr.Trace.ID, logBuf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The engine reported cache traffic into the controller's registry:
	// two predictions of one model are one embed plus one hit (or two hits
	// if another test already warmed the shared engine's cache).
	snap := ctrl.Metrics().Snapshot()
	hits, misses := snap.Counter("embed.cache.hits"), snap.Counter("embed.cache.misses")
	if hits < 1 || hits+misses != 2 {
		t.Errorf("cache hits=%d misses=%d, want hits >= 1 and hits+misses == 2", hits, misses)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the trace log writes from the
// server goroutine while the test polls String.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
