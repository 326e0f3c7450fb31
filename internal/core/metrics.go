package core

import (
	"context"
	"log"
	"net/http"
	"strconv"

	"predictddl/internal/obs"
)

// This file is the controller's observability surface (DESIGN.md §9): the
// metrics registry accessors, the per-endpoint HTTP middleware, and the
// request-trace plumbing. Metric names are stable API:
//
//	http.requests.<endpoint>.<status>  counter, one per endpoint × status
//	http.latency.<endpoint>.seconds    histogram, obs.LatencyBuckets
//	http.batch.size                    histogram, batch request counts
//	http.inflight                      gauge, requests between accept and reply
//
// plus the engine family (embed.cache.*) and the ghn.* family attached by
// InferenceEngine.Instrument.

// Metrics returns the controller's metrics registry. Every controller has
// one from construction (backed by the system clock), so instrumentation is
// always live; tests swap in a fake-clock registry via SetMetricsRegistry.
func (c *Controller) Metrics() *obs.Registry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.metrics
}

// SetMetricsRegistry replaces the controller's registry (nil installs a
// fresh system-clock one) and re-instruments every registered engine
// against it. Swap before serving traffic: in-flight requests report into
// the registry they started with.
func (c *Controller) SetMetricsRegistry(r *obs.Registry) {
	if r == nil {
		r = obs.NewRegistry(nil)
	}
	c.mu.Lock()
	c.metrics = r
	engines := make([]*InferenceEngine, 0, len(c.engines))
	for _, e := range c.engines {
		engines = append(engines, e)
	}
	c.mu.Unlock()
	for _, e := range engines {
		e.Instrument(r)
	}
}

// SetTraceLog directs server-side copies of per-request traces (requests
// carrying ?trace=1) to l; nil disables logging. Traces are always returned
// to the requesting client regardless.
func (c *Controller) SetTraceLog(l *log.Logger) {
	c.mu.Lock()
	c.traceLog = l
	c.mu.Unlock()
}

func (c *Controller) traceLogger() *log.Logger {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.traceLog
}

// traceCtxKey keys the per-request *obs.Trace in the request context.
type traceCtxKey struct{}

// withTrace attaches tr to the request's context.
func withTrace(r *http.Request, tr *obs.Trace) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tr))
}

// traceFrom returns the request's trace, or nil when the request is
// untraced — every *obs.Trace method is nil-safe, so handlers use the
// result unconditionally.
func traceFrom(r *http.Request) *obs.Trace {
	tr, _ := r.Context().Value(traceCtxKey{}).(*obs.Trace)
	return tr
}

// instrument wraps h with the observability middleware: request-ID
// propagation, in-flight gauge, per-status request counters, a latency
// histogram, and — when the client opts in with ?trace=1 — a stage-timed
// request trace that is echoed in the response and logged server-side.
//
// With a fake-clock registry the middleware consumes exactly two clock
// reads per untraced request (start and stop), so scripted tests can
// assert exact latency bucket counts (DESIGN.md §9).
func (c *Controller) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	latencyName := "http.latency." + endpoint + ".seconds"
	counterPrefix := "http.requests." + endpoint + "."
	return func(w http.ResponseWriter, r *http.Request) {
		reg := c.Metrics()
		clock := reg.Clock()
		start := clock.Now()
		inflight := reg.Gauge("http.inflight")
		inflight.Inc()
		defer inflight.Dec()

		// Propagate the client's request ID when it is well-formed; mint one
		// otherwise. The ID is always echoed so clients can correlate.
		id := obs.SanitizeRequestID(r.Header.Get(obs.RequestIDHeader))
		if id == "" {
			id = c.ids.Next()
		}
		w.Header().Set(obs.RequestIDHeader, id)

		var tr *obs.Trace
		if r.URL.Query().Get("trace") == "1" {
			tr = obs.NewTrace(id, clock)
			r = withTrace(r, tr)
		}

		rec := &obs.StatusRecorder{ResponseWriter: w}
		h(rec, r)

		code := rec.Code()
		reg.Counter(counterPrefix + strconv.Itoa(code)).Inc()
		reg.Histogram(latencyName, nil).Observe(obs.Since(clock, start).Seconds())
		if tr != nil {
			if l := c.traceLogger(); l != nil {
				l.Printf("%s %s -> %d %s", r.Method, endpoint, code, tr.Report())
			}
		}
	}
}

// handleMetrics serves the registry as JSON (GET /v1/metrics).
func (c *Controller) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.Handler(c.Metrics()).ServeHTTP(w, r)
}

// handleVars serves the registry as a /debug/vars-style text dump.
func (c *Controller) handleVars(w http.ResponseWriter, r *http.Request) {
	obs.TextHandler(c.Metrics()).ServeHTTP(w, r)
}
