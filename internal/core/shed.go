package core

import (
	"net/http"
	"strconv"
	"sync"

	"predictddl/internal/obs"
)

// This file is the load-shedding primitive of the admission layer
// (DESIGN.md §8): a counting inflight limiter the controller applies to its
// prediction endpoints, and that the gateway reuses per shard so one
// saturated replica sheds instead of queueing unboundedly.

// InflightLimiter admits at most Limit concurrent holders. The zero limit
// (or any non-positive one) admits everything, so an unconfigured limiter
// is a no-op rather than a deadlock. Safe for concurrent use.
type InflightLimiter struct {
	mu       sync.Mutex
	limit    int //ddlvet:guardedby mu
	inflight int //ddlvet:guardedby mu
}

// NewInflightLimiter returns a limiter admitting up to limit concurrent
// holders; limit <= 0 means unlimited.
func NewInflightLimiter(limit int) *InflightLimiter {
	return &InflightLimiter{limit: limit}
}

// TryAcquire claims one slot, reporting false when the limiter is
// saturated. Every true return must be paired with exactly one Release.
func (l *InflightLimiter) TryAcquire() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.limit > 0 && l.inflight >= l.limit {
		return false
	}
	l.inflight++
	return true
}

// Release returns a slot claimed by TryAcquire.
func (l *InflightLimiter) Release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight > 0 {
		l.inflight--
	}
}

// SetLimit changes the admission ceiling; <= 0 means unlimited. Lowering
// the limit never evicts current holders — admission tightens as they
// release.
func (l *InflightLimiter) SetLimit(limit int) {
	l.mu.Lock()
	l.limit = limit
	l.mu.Unlock()
}

// Inflight reports the currently admitted count.
func (l *InflightLimiter) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// RetryAfterSeconds is the Retry-After hint written with every shed 503:
// one second keeps well-behaved clients off a saturated server for long
// enough that the inflight work drains, without parking them for so long
// that capacity idles after a burst.
const RetryAfterSeconds = 1

// WriteShed writes the canonical shed response: 503 with a Retry-After
// hint, distinguishing "overloaded, come back" from the 503 a degraded
// inventory produces (which carries no Retry-After). Shared by the
// controller's inflight cap and the gateway's per-shard caps so clients
// see one contract.
func WriteShed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	obs.HTTPError(w, http.StatusServiceUnavailable, msg)
}

// SetMaxInflight caps concurrent /v1/predict and /v1/predict/batch
// requests; beyond the cap the controller sheds with 503 + Retry-After
// instead of queueing. n <= 0 removes the cap. Introspection endpoints
// (status, models, metrics) are never shed — a saturated server must stay
// observable.
func (c *Controller) SetMaxInflight(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shedder == nil {
		c.shedder = NewInflightLimiter(n)
		return
	}
	c.shedder.SetLimit(n)
}

// shedLimiter returns the prediction-endpoint limiter, nil when uncapped.
func (c *Controller) shedLimiter() *InflightLimiter {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shedder
}

// shed wraps a prediction handler with the inflight cap. It runs inside
// the request middleware, so shed 503s land in the same
// http.requests.<endpoint>.503 counter and latency histogram as every
// other response; http.shed.<endpoint> additionally counts them so
// operators can tell shed 503s from degraded-inventory 503s at a glance.
func (c *Controller) shed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	shedCount := &obs.Handles[*obs.Counter]{Resolve: func(r *obs.Registry) *obs.Counter {
		return r.Counter("http.shed." + endpoint)
	}}
	return func(w http.ResponseWriter, r *http.Request) {
		lim := c.shedLimiter()
		if !lim.TryAcquire() {
			shedCount.Get(c.Metrics()).Inc()
			WriteShed(w, "server saturated: inflight request cap reached; retry shortly")
			return
		}
		defer lim.Release()
		h(w, r)
	}
}
