package core

import (
	"net/http"
	"strconv"
	"sync"

	"predictddl/internal/obs"
)

// This file is the load-shedding primitive of the serving path (DESIGN.md
// §13): a counting inflight limiter the gateway applies per shard, so one
// saturated replica sheds instead of queueing unboundedly, and the shed
// reply it writes.

// InflightLimiter admits at most limit concurrent holders. The zero limit
// (or any non-positive one) admits everything, so an unconfigured limiter
// is a no-op rather than a deadlock. Safe for concurrent use.
type InflightLimiter struct {
	limit    int
	mu       sync.Mutex
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
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight > 0 {
		l.inflight--
	}
}

// RetryAfterSeconds is the Retry-After hint written with every shed 503:
// one second keeps well-behaved clients off a saturated server for long
// enough that the inflight work drains, without parking them for so long
// that capacity idles after a burst.
const RetryAfterSeconds = 1

// WriteShed writes the canonical shed response: 503 with a Retry-After
// hint, distinguishing "overloaded, come back" from the 503 a degraded
// inventory produces (which carries no Retry-After).
func WriteShed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	obs.HTTPError(w, http.StatusServiceUnavailable, msg)
}
