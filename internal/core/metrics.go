package core

import (
	"log"
	"net/http"

	"predictddl/internal/obs"
)

// This file is the controller's observability surface (DESIGN.md §9): the
// metrics registry and trace-log accessors behind the obs.Middleware that
// Handler mounts. On top of the middleware's http.* families the controller
// reports, under names that are stable API:
//
//	http.batch.size        histogram, batch request counts
//	http.shed.<endpoint>   counter, requests refused by the inflight cap
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

// handleMetrics serves the registry as JSON (GET /v1/metrics).
func (c *Controller) handleMetrics(w http.ResponseWriter, r *http.Request) {
	obs.Handler(c.Metrics()).ServeHTTP(w, r)
}

// handleVars serves the registry as a /debug/vars-style text dump.
func (c *Controller) handleVars(w http.ResponseWriter, r *http.Request) {
	obs.TextHandler(c.Metrics()).ServeHTTP(w, r)
}
