package load

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"predictddl/internal/obs"
)

// Report is the BENCH_serve.json artifact: the serving tier's measured
// performance trajectory for one commit on one machine. Latency quantiles
// are client-observed; the Server blocks cross-check them against the
// controller's own /v1/metrics histograms so a client-side artifact (GC
// pause in the generator, pool exhaustion) cannot masquerade as a server
// regression.
type Report struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	Seed        int64  `json:"seed"`
	// Open is the open-loop run at the configured target RPS.
	Open *RunReport `json:"open,omitempty"`
	// Closed is the fixed-concurrency closed-loop run.
	Closed *RunReport `json:"closed,omitempty"`
	// Gateway is the per-shard breakdown when the target is a gateway
	// (EXPERIMENTS.md §serving): how the run's traffic spread over the
	// ring, plus shed/rebalance counts and fan-out latency.
	Gateway *GatewayReport `json:"gateway,omitempty"`
}

// RunReport summarizes one run.
type RunReport struct {
	Mode            string  `json:"mode"`
	TargetRPS       float64 `json:"target_rps,omitempty"`
	Concurrency     int     `json:"concurrency,omitempty"`
	DurationSeconds float64 `json:"duration_seconds"`
	Dispatched      int     `json:"dispatched"`
	Completed       int     `json:"completed"`
	// AchievedRPS is completed responses over wall time — for open-loop
	// runs it sags below TargetRPS exactly when the server cannot keep up.
	AchievedRPS float64 `json:"achieved_rps"`
	// Endpoints breaks latency down per endpoint (client-observed).
	Endpoints []EndpointStats `json:"endpoints"`
	// Statuses is the status-code breakdown ("transport" = no response).
	Statuses []StatusCount `json:"statuses"`
	// Unexpected counts samples whose status violated the scenario
	// contract (e.g. a zoo predict answering 503) — the run's true error
	// count, since 404s and 413s here are *requested* outcomes.
	Unexpected int `json:"unexpected"`
	// Server carries the /v1/metrics cross-check (nil when the scrape was
	// skipped or failed).
	Server []ServerCheck `json:"server,omitempty"`
}

// EndpointStats is the client-observed latency profile of one endpoint,
// computed over samples that produced a response. Quantiles come from an
// obs.LatencyBuckets histogram — the same estimator the server reports —
// and carry the overflow/saturation marks from DESIGN.md §12 instead of
// silently clamping.
type EndpointStats struct {
	Endpoint     string  `json:"endpoint"`
	Requests     int     `json:"requests"`
	P50Seconds   float64 `json:"p50_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	P99Saturated bool    `json:"p99_saturated,omitempty"`
	Overflow     uint64  `json:"overflow,omitempty"`
	MeanSeconds  float64 `json:"mean_seconds"`
}

// ServerCheck cross-references one instrumented endpoint's client-side
// view with the server's own counters and histograms, as deltas across the
// run.
type ServerCheck struct {
	// Endpoint is the server's metric label ("predict", "batch").
	Endpoint string `json:"endpoint"`
	// ClientResponses counts client samples that got an HTTP response.
	ClientResponses uint64 `json:"client_responses"`
	// ServerRequests is the delta of the endpoint's http.requests.*
	// counters across the run.
	ServerRequests uint64 `json:"server_requests"`
	// CountsMatch is ServerRequests == ClientResponses. With transport
	// errors in the run the two may legitimately diverge (a request can
	// die after the server counted it), so consumers gate on this only
	// when the transport error count is zero.
	CountsMatch bool `json:"counts_match"`
	// Server-side latency over the run window (delta histogram).
	P50Seconds   float64 `json:"p50_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	P99Saturated bool    `json:"p99_saturated,omitempty"`
	Overflow     uint64  `json:"overflow,omitempty"`
}

// endpointLabel maps a request path to the server's metric label.
func endpointLabel(path string) string {
	switch path {
	case "/v1/predict":
		return "predict"
	case "/v1/predict/batch", "/v1/batch":
		return "batch"
	default:
		return path
	}
}

// Summarize folds a run's samples into a RunReport (without the Server
// cross-check; see CrossCheck).
func Summarize(sched *Schedule, res *RunResult, concurrency int) *RunReport {
	rep := &RunReport{
		Mode:            string(sched.Config.Mode),
		TargetRPS:       sched.Config.RPS,
		Concurrency:     concurrency,
		DurationSeconds: res.Elapsed.Seconds(),
		Dispatched:      res.Dispatched,
		Statuses:        countStatuses(res.Samples),
	}
	// Client-side latency histograms per endpoint, same bucket ladder as
	// the server's (so saturation behaves identically on both sides).
	reg := obs.NewRegistry(nil)
	completed := 0
	for _, s := range res.Samples {
		if !s.Expected() {
			rep.Unexpected++
		}
		if s.Status == 0 {
			continue
		}
		completed++
		reg.Histogram("lat."+endpointLabel(s.Path), obs.LatencyBuckets()).
			Observe(s.Latency.Seconds())
	}
	rep.Completed = completed
	if res.Elapsed > 0 {
		rep.AchievedRPS = float64(completed) / res.Elapsed.Seconds()
	}
	snap := reg.Snapshot()
	for _, hv := range snap.Histograms {
		p99, sat := hv.QuantileSaturated(0.99)
		rep.Endpoints = append(rep.Endpoints, EndpointStats{
			Endpoint:     hv.Name[len("lat."):],
			Requests:     int(hv.Count),
			P50Seconds:   hv.Quantile(0.5),
			P99Seconds:   p99,
			P99Saturated: sat,
			Overflow:     hv.Overflow,
			MeanSeconds:  hv.Mean(),
		})
	}
	return rep
}

// ScrapeMetrics fetches and decodes the target's /v1/metrics snapshot.
func ScrapeMetrics(client *http.Client, baseURL string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := client.Get(baseURL + "/v1/metrics")
	if err != nil {
		return snap, fmt.Errorf("load: metrics scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("load: metrics scrape: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("load: metrics scrape decode: %w", err)
	}
	return snap, nil
}

// CrossCheck compares the client-side run against the server's own
// metrics, as deltas between a pre-run and post-run /v1/metrics snapshot:
// request-counter deltas must equal the client's response counts, and the
// server's latency histogram delta supplies the authoritative p50/p99 (and
// overflow) for the run window.
func CrossCheck(res *RunResult, before, after obs.Snapshot) []ServerCheck {
	clientByEp := map[string]uint64{}
	for _, s := range res.Samples {
		if s.Status != 0 {
			clientByEp[endpointLabel(s.Path)]++
		}
	}
	var out []ServerCheck
	for _, ep := range []string{"predict", "batch"} {
		var server uint64
		for _, c := range after.Counters {
			prefix := "http.requests." + ep + "."
			if len(c.Name) > len(prefix) && c.Name[:len(prefix)] == prefix {
				server += c.Value - before.Counter(c.Name)
			}
		}
		client := clientByEp[ep]
		if server == 0 && client == 0 {
			continue
		}
		check := ServerCheck{
			Endpoint:        ep,
			ClientResponses: client,
			ServerRequests:  server,
			CountsMatch:     server == client,
		}
		latName := "http.latency." + ep + ".seconds"
		if hv, ok := after.HistogramByName(latName); ok {
			prev, _ := before.HistogramByName(latName)
			delta := histogramDelta(hv, prev)
			p99, sat := delta.QuantileSaturated(0.99)
			check.P50Seconds = delta.Quantile(0.5)
			check.P99Seconds = p99
			check.P99Saturated = sat
			check.Overflow = delta.Overflow
		}
		out = append(out, check)
	}
	return out
}

// histogramDelta subtracts a prior snapshot of the same histogram bucket
// by bucket, yielding the run window's own distribution. A mismatched or
// absent prior (fresh server) falls back to the raw snapshot.
func histogramDelta(cur, prev obs.HistogramValue) obs.HistogramValue {
	if len(prev.Buckets) != len(cur.Buckets) {
		return cur
	}
	out := obs.HistogramValue{
		Name:    cur.Name,
		Count:   cur.Count - prev.Count,
		Sum:     cur.Sum - prev.Sum,
		Buckets: make([]obs.BucketValue, len(cur.Buckets)),
	}
	for i := range cur.Buckets {
		out.Buckets[i] = obs.BucketValue{
			UpperBound: cur.Buckets[i].UpperBound,
			Count:      cur.Buckets[i].Count - prev.Buckets[i].Count,
		}
	}
	out.Overflow = out.Buckets[len(out.Buckets)-1].Count
	return out
}

// NewReport stamps the report envelope.
func NewReport(seed int64) *Report {
	return &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Seed:        seed,
	}
}

// WriteFile serializes the report to path (indented, trailing newline —
// the artifact is checked into diffs and CI logs, so keep it readable).
func (rep *Report) WriteFile(path string) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("load: report marshal: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("load: report write: %w", err)
	}
	return nil
}
