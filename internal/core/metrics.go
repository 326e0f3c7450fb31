package core

import (
	"log"

	"predictddl/internal/obs"
)

// This file is the controller's observability surface (DESIGN.md §9): the
// metrics registry and trace-log accessors behind the obs.Middleware that
// Handler mounts. On top of the middleware's http.* families the controller
// reports, under a name that is stable API:
//
//	http.batch.size        histogram, batch request counts
//
// plus the engine family (embed.cache.*) and the ghn.* family attached by
// InferenceEngine.Instrument.

// Metrics returns the controller's metrics registry. Every controller has
// one from construction (backed by the system clock; the package's tests
// build theirs on a fake clock), so instrumentation is always live.
func (c *Controller) Metrics() *obs.Registry { return c.metrics }

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
