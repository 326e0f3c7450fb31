package load

import (
	"context"
	"sync"
	"testing"
	"time"

	"predictddl/internal/core"
)

// liveServer stands up the synthetic controller behind a real core.Server
// on a loopback port and returns its base URL plus a stop func that drains
// it and joins the serve goroutine.
func liveServer(t *testing.T, seed int64) (baseURL string, ctrl *core.Controller, stop func()) {
	t.Helper()
	ctrl, err := NewSyntheticController(seed, "cifar10")
	if err != nil {
		t.Fatalf("NewSyntheticController: %v", err)
	}
	srv, err := core.NewServer("127.0.0.1:0", ctrl.Handler(), core.ServerOptions{
		ShutdownTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	serveErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr <- srv.Serve(ctx)
	}()
	stop = func() {
		cancel()
		wg.Wait()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
	return "http://" + srv.Addr(), ctrl, stop
}

// TestClosedLoopContract drives a mixed closed-loop run against the live
// synthetic server and asserts the whole serving contract: every sample's
// status matches its scenario's promise, the status breakdown equals the
// schedule's own expectation counts, and the server's request counters
// agree with the client's view.
func TestClosedLoopContract(t *testing.T) {
	baseURL, _, stop := liveServer(t, 3)
	defer stop()

	sched, err := BuildSchedule(ScheduleConfig{
		Seed: 11, Mode: ModeClosed, Count: 80,
		Mix: Mix{{KindZoo, 40}, {KindBatch, 15}, {KindCustom, 15}, {KindNotFound, 15}, {KindOversized, 15}},
	})
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	r := &Runner{BaseURL: baseURL}
	before, err := ScrapeMetrics(r.HTTPClient(), baseURL)
	if err != nil {
		t.Fatalf("pre-run scrape: %v", err)
	}
	res, err := r.RunClosed(context.Background(), sched, 4, 0)
	if err != nil {
		t.Fatalf("RunClosed: %v", err)
	}
	if len(res.Samples) != len(sched.Requests) || res.Dispatched != len(sched.Requests) {
		t.Fatalf("executed %d, dispatched %d; want %d", len(res.Samples), res.Dispatched, len(sched.Requests))
	}
	for _, s := range res.Samples {
		if !s.Expected() {
			t.Errorf("sample %d (%s): status %d err %q, contract %d", s.Index, s.Kind, s.Status, s.Err, s.Expect)
		}
		if s.Latency <= 0 {
			t.Errorf("sample %d: non-positive latency %v", s.Index, s.Latency)
		}
	}

	// The status breakdown must equal what the schedule itself promises.
	want := map[string]int{}
	for _, req := range sched.Requests {
		want[statusString(req.Expect)]++
	}
	got := map[string]int{}
	for _, sc := range countStatuses(res.Samples) {
		got[sc.Code] = sc.Count
	}
	for code, n := range want {
		if got[code] != n {
			t.Errorf("status %s: got %d, want %d (full: %v)", code, got[code], n, got)
		}
	}

	rep := Summarize(sched, res, 4)
	if rep.Unexpected != 0 {
		t.Errorf("Unexpected = %d, want 0", rep.Unexpected)
	}
	if rep.Completed != len(sched.Requests) {
		t.Errorf("Completed = %d, want %d", rep.Completed, len(sched.Requests))
	}
	if len(rep.Endpoints) == 0 {
		t.Fatalf("no endpoint stats")
	}
	for _, ep := range rep.Endpoints {
		if ep.P50Seconds <= 0 || ep.P99Seconds < ep.P50Seconds {
			t.Errorf("endpoint %s: implausible quantiles p50=%g p99=%g", ep.Endpoint, ep.P50Seconds, ep.P99Seconds)
		}
	}

	// Cross-check against the server's own counters, with a settle loop for
	// the flush-then-increment race in the metrics middleware.
	var checks []ServerCheck
	for attempt := 0; attempt < 50; attempt++ {
		after, err := ScrapeMetrics(r.HTTPClient(), baseURL)
		if err != nil {
			t.Fatalf("post-run scrape: %v", err)
		}
		checks = CrossCheck(res, before, after)
		settled := len(checks) > 0
		for _, c := range checks {
			if !c.CountsMatch {
				settled = false
			}
		}
		if settled {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(checks) == 0 {
		t.Fatalf("cross-check produced no endpoints")
	}
	for _, c := range checks {
		if !c.CountsMatch {
			t.Errorf("endpoint %s: server saw %d requests, client got %d responses",
				c.Endpoint, c.ServerRequests, c.ClientResponses)
		}
		if c.P99Seconds <= 0 {
			t.Errorf("endpoint %s: server-side p99 = %g", c.Endpoint, c.P99Seconds)
		}
	}
}

// TestOpenLoopRun fires a short open-loop schedule and asserts full
// dispatch and contract compliance.
func TestOpenLoopRun(t *testing.T) {
	baseURL, _, stop := liveServer(t, 4)
	defer stop()

	sched, err := BuildSchedule(ScheduleConfig{
		Seed: 2, Mode: ModeOpen, RPS: 200, Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	r := &Runner{BaseURL: baseURL}
	res, err := r.RunOpen(context.Background(), sched)
	if err != nil {
		t.Fatalf("RunOpen: %v", err)
	}
	if res.Dispatched != len(sched.Requests) || len(res.Samples) != len(sched.Requests) {
		t.Fatalf("dispatched %d, executed %d; want %d", res.Dispatched, len(res.Samples), len(sched.Requests))
	}
	for _, s := range res.Samples {
		if !s.Expected() {
			t.Errorf("sample %d (%s): status %d err %q, contract %d", s.Index, s.Kind, s.Status, s.Err, s.Expect)
		}
	}
	// The run cannot finish faster than the last arrival offset.
	last := sched.Requests[len(sched.Requests)-1].Offset
	if res.Elapsed < last {
		t.Errorf("elapsed %v shorter than last offset %v", res.Elapsed, last)
	}
}

// TestRunnerModeMismatch: the runner refuses a schedule built for the other
// discipline instead of silently misinterpreting offsets.
func TestRunnerModeMismatch(t *testing.T) {
	open, err := BuildSchedule(ScheduleConfig{Seed: 1, Mode: ModeOpen, RPS: 100, Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	closed, err := BuildSchedule(ScheduleConfig{Seed: 1, Mode: ModeClosed, Count: 5})
	if err != nil {
		t.Fatalf("BuildSchedule: %v", err)
	}
	r := &Runner{BaseURL: "http://127.0.0.1:0"}
	if _, err := r.RunOpen(context.Background(), closed); err == nil {
		t.Errorf("RunOpen accepted a closed-loop schedule")
	}
	if _, err := r.RunClosed(context.Background(), open, 2, 0); err == nil {
		t.Errorf("RunClosed accepted an open-loop schedule")
	}
	if _, err := r.RunClosed(context.Background(), closed, 0, 0); err == nil {
		t.Errorf("RunClosed accepted concurrency 0")
	}
}

func statusString(code int) string {
	return Sample{Status: code}.StatusKey()
}
