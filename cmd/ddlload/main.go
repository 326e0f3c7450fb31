// Command ddlload is PredictDDL's load generator and serving
// status-contract checker (DESIGN.md §12). It drives /v1/predict and
// /v1/predict/batch at a target rate with seeded, reproducible schedules —
// open-loop Poisson arrivals and fixed-concurrency closed loop — over a
// mixed scenario blend (warm zoo predictions, cold custom graphs,
// unknown-dataset 404s, oversized-body 413s), measures client-side
// latency, cross-checks it against the server's own /v1/metrics
// histograms, and writes the BENCH_serve.json artifact: per-endpoint
// p50/p99 and a status-code breakdown per run. Performance regressions
// are gated by the layered benchmark in bench/, not here.
//
// Usage:
//
//	ddlload -self -out BENCH_serve.json                  # in-process target
//	ddlload -self -gateway -gateway-replicas 2 \
//	        -mix "zoo=40,batch=10,custom=10,gateway=30,notfound=5,oversized=5"
//	ddlload -addr http://host:8080 -rps 200 -duration 10s
//
// -gateway -self stands up a multi-replica topology (synthetic controllers
// behind a consistent-hash gateway) and drives the front door; the gateway
// scenario kind rotates predicts across datasets owned by distinct shards,
// and the report gains a per-shard section (requests/errors/shed per
// shard, rebalances, fan-out latency). The run fails if traffic reached
// fewer than two shards.
//
// An open or closed run in which any response breaks its scenario's status
// contract (a 500 where a 200, 404 or 413 was due, or a transport error)
// fails the invocation, as does a client/server counter mismatch — the
// checks `make loadbench` runs in verify and CI.
//
// Two invocations with the same -seed issue byte-identical request
// schedules (arrival offsets, scenario sequence, request bodies), so
// artifact deltas are attributable to the server, not the generator.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"predictddl/internal/core"
	"predictddl/internal/load"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ddlload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ddlload", flag.ExitOnError)
	addr := fs.String("addr", "", "target server base URL (e.g. http://127.0.0.1:8080); empty requires -self")
	self := fs.Bool("self", false, "stand up an in-process synthetic-controller server and drive it")
	gatewayMode := fs.Bool("gateway", false, "with -self: stand up a multi-replica gateway topology and drive its front door; with -addr: treat the target as a gateway and record the per-shard report section")
	gatewayReplicas := fs.Int("gateway-replicas", 2, "replica count of the -self -gateway topology")
	gatewayDatasets := fs.String("gateway-datasets", "", "comma-separated datasets the gateway scenario rotates across (auto-derived per shard in -self mode)")
	dataset := fs.String("dataset", "cifar10", "dataset every well-formed request names (must be served by the target)")
	seed := fs.Int64("seed", 1, "schedule seed: equal seeds replay identical request schedules")
	mixFlag := fs.String("mix", "zoo=70,batch=10,custom=10,notfound=5,oversized=5", "scenario blend, kind=weight pairs")
	rps := fs.Float64("rps", 150, "open-loop target arrival rate")
	duration := fs.Duration("duration", 4*time.Second, "open-loop run window")
	concurrency := fs.Int("concurrency", 8, "closed-loop worker count")
	closedReqs := fs.Int("closed-requests", 400, "closed-loop schedule length")
	serverMaxBody := fs.Int64("server-max-body", load.DefaultOversizedTarget, "target's request-body admission cap; oversized bodies are padded past it")
	out := fs.String("out", "BENCH_serve.json", "report artifact path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	mix, err := load.ParseMix(*mixFlag)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	baseURL := *addr
	var gwDatasets []string
	if *gatewayDatasets != "" {
		for _, d := range strings.Split(*gatewayDatasets, ",") {
			if d = strings.TrimSpace(d); d != "" {
				gwDatasets = append(gwDatasets, d)
			}
		}
	}
	if *self {
		if baseURL != "" {
			return fmt.Errorf("-self and -addr are mutually exclusive")
		}
		if *gatewayMode {
			topo, terr := load.StartGatewayTopology(ctx, *seed, *gatewayReplicas, *dataset)
			if terr != nil {
				return terr
			}
			defer func() {
				if serr := topo.Stop(); serr != nil {
					fmt.Fprintln(os.Stderr, "ddlload: gateway topology stop:", serr)
				}
			}()
			baseURL = topo.URL
			if gwDatasets == nil {
				gwDatasets = topo.ShardDatasets
			}
			fmt.Printf("in-process gateway on %s fronting %d replicas (shard datasets %v)\n",
				baseURL, len(topo.ReplicaURLs), topo.ShardDatasets)
		} else {
			var stop func() error
			baseURL, stop, err = startSelf(ctx, *seed, *dataset)
			if err != nil {
				return err
			}
			defer func() {
				if serr := stop(); serr != nil {
					fmt.Fprintln(os.Stderr, "ddlload: self server stop:", serr)
				}
			}()
		}
	}
	if baseURL == "" {
		return fmt.Errorf("need -addr URL or -self")
	}

	cfg := load.ScheduleConfig{
		Seed:            *seed,
		Mix:             mix,
		Dataset:         *dataset,
		ServerMaxBody:   *serverMaxBody,
		GatewayDatasets: gwDatasets,
	}
	runner := &load.Runner{BaseURL: baseURL}
	rep := load.NewReport(*seed)

	// Open loop at the target rate.
	openCfg := cfg
	openCfg.Mode, openCfg.RPS, openCfg.Duration = load.ModeOpen, *rps, *duration
	openSched, err := load.BuildSchedule(openCfg)
	if err != nil {
		return err
	}
	fmt.Printf("open loop: %.0f rps for %v (%d arrivals) against %s\n",
		*rps, *duration, len(openSched.Requests), baseURL)
	rep.Open, err = measuredRun(runner, baseURL, openSched, func() (*load.RunResult, error) {
		return runner.RunOpen(ctx, openSched)
	}, 0)
	if err != nil {
		return err
	}
	printRun(rep.Open)
	if err := contractHeld(rep.Open); err != nil {
		return err
	}

	// Closed loop at fixed concurrency.
	closedCfg := cfg
	closedCfg.Mode, closedCfg.Count = load.ModeClosed, *closedReqs
	closedSched, err := load.BuildSchedule(closedCfg)
	if err != nil {
		return err
	}
	fmt.Printf("closed loop: %d workers over %d requests\n", *concurrency, *closedReqs)
	rep.Closed, err = measuredRun(runner, baseURL, closedSched, func() (*load.RunResult, error) {
		return runner.RunClosed(ctx, closedSched, *concurrency, 0)
	}, *concurrency)
	if err != nil {
		return err
	}
	printRun(rep.Closed)
	if err := contractHeld(rep.Closed); err != nil {
		return err
	}

	// Per-shard section: the gateway's own counters after the whole run.
	if *gatewayMode {
		snap, serr := load.ScrapeMetrics(runner.HTTPClient(), baseURL)
		if serr != nil {
			return fmt.Errorf("gateway metrics scrape: %w", serr)
		}
		rep.Gateway = load.GatewayReportFromSnapshot(snap)
		if rep.Gateway == nil {
			return fmt.Errorf("-gateway set but %s exposes no gateway.shard.* counters", baseURL)
		}
		activeShards := 0
		for _, sh := range rep.Gateway.Shards {
			fmt.Printf("  shard %s: requests=%d errors=%d shed=%d\n", sh.Shard, sh.Requests, sh.Errors, sh.Shed)
			if sh.Requests > 0 {
				activeShards++
			}
		}
		if activeShards < 2 {
			return fmt.Errorf("gateway run routed traffic to %d shards; want >= 2 (is the gateway mix entry weighted?)", activeShards)
		}
	}

	if err := rep.WriteFile(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

// measuredRun wraps one run with the /v1/metrics cross-check: snapshot,
// run, re-snapshot (settled), and attach the per-endpoint comparison. A
// counter/response mismatch in a transport-error-free run is a
// correctness failure — one side lost requests — and aborts with an error.
func measuredRun(runner *load.Runner, baseURL string, sched *load.Schedule, exec func() (*load.RunResult, error), concurrency int) (*load.RunReport, error) {
	client := runner.HTTPClient()
	before, scrapeErr := load.ScrapeMetrics(client, baseURL)
	res, err := exec()
	if err != nil {
		return nil, err
	}
	rep := load.Summarize(sched, res, concurrency)
	if scrapeErr != nil {
		// No metrics surface (non-PredictDDL target?): report client-side
		// numbers only.
		fmt.Fprintf(os.Stderr, "ddlload: metrics cross-check unavailable: %v\n", scrapeErr)
		return rep, nil
	}
	transportErrs := 0
	for _, s := range res.Samples {
		if s.Status == 0 {
			transportErrs++
		}
	}
	// The middleware increments its counters after the response body is
	// flushed, so the final requests' counts can trail the client's view
	// by a few milliseconds: retry the post-run scrape until the counters
	// settle (or the budget runs out).
	var checks []load.ServerCheck
	for attempt := 0; ; attempt++ {
		after, err := load.ScrapeMetrics(client, baseURL)
		if err != nil {
			return nil, err
		}
		checks = load.CrossCheck(res, before, after)
		if allMatch(checks) || attempt >= 20 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	rep.Server = checks
	if transportErrs == 0 && !allMatch(checks) {
		return nil, fmt.Errorf("metrics cross-check failed with zero transport errors: %+v", checks)
	}
	return rep, nil
}

// contractHeld fails a finished run in which any sample broke its
// scenario's status contract (transport errors included): counters that
// reconcile do not make a 500 where a 200 was due a pass.
func contractHeld(rep *load.RunReport) error {
	if rep.Unexpected > 0 {
		return fmt.Errorf("%s run: %d of %d samples broke their scenario's status contract: %+v",
			rep.Mode, rep.Unexpected, rep.Dispatched, rep.Statuses)
	}
	return nil
}

func allMatch(checks []load.ServerCheck) bool {
	for _, c := range checks {
		if !c.CountsMatch {
			return false
		}
	}
	return true
}

// startSelf stands up the in-process target: a synthetic controller (real
// serving path, throwaway model; see load.NewSyntheticController) behind a
// hardened core.Server on a loopback port. The returned stop function
// drains and reports any serve failure.
func startSelf(ctx context.Context, seed int64, dataset string) (string, func() error, error) {
	ctrl, err := load.NewSyntheticController(seed, dataset)
	if err != nil {
		return "", nil, err
	}
	srv, err := core.NewServer("127.0.0.1:0", ctrl.Handler(), core.ServerOptions{})
	if err != nil {
		return "", nil, err
	}
	serveCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(serveCtx) }()
	stop := func() error {
		cancel()
		return <-done
	}
	fmt.Printf("in-process server on %s (synthetic controller, dataset %s)\n", srv.Addr(), dataset)
	return "http://" + srv.Addr(), stop, nil
}

// printRun renders one run's summary lines.
func printRun(rep *load.RunReport) {
	fmt.Printf("  %s: dispatched %d, completed %d (%.1f rps achieved), unexpected %d\n",
		rep.Mode, rep.Dispatched, rep.Completed, rep.AchievedRPS, rep.Unexpected)
	for _, ep := range rep.Endpoints {
		mark := ""
		if ep.P99Saturated {
			mark = fmt.Sprintf("+ (overflow=%d)", ep.Overflow)
		}
		fmt.Printf("    %-8s n=%-5d p50 %.4gs  p99 %.4gs%s\n",
			ep.Endpoint, ep.Requests, ep.P50Seconds, ep.P99Seconds, mark)
	}
	for _, sc := range rep.Statuses {
		fmt.Printf("    status %-9s %d\n", sc.Code, sc.Count)
	}
	for _, c := range rep.Server {
		match := "match"
		if !c.CountsMatch {
			match = "MISMATCH"
		}
		fmt.Printf("    server %-8s requests=%d client=%d (%s)  p50 %.4gs p99 %.4gs overflow=%d\n",
			c.Endpoint, c.ServerRequests, c.ClientResponses, match, c.P50Seconds, c.P99Seconds, c.Overflow)
	}
}
