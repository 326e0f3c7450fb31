package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Middleware is the request middleware the controller and the gateway both
// mount (DESIGN.md §9): request-ID propagation, the in-flight gauge,
// per-status request counters, a latency histogram, and — when the client
// opts in with ?trace=1 — a stage-timed request trace handlers pick up with
// TraceFrom. Metric names are stable API:
//
//	http.requests.<endpoint>.<status>  counter, one per endpoint × status
//	http.latency.<endpoint>.seconds    histogram, LatencyBuckets
//	http.inflight                      gauge, requests between accept and reply
type Middleware struct {
	// Registry receives every request's metrics. Each endpoint resolves its
	// handles from it on first use, so it is set once, before serving.
	Registry *Registry
	// IDs mints request IDs for clients that send none.
	IDs *IDSource
	// TraceLog, when set, returns the logger receiving a server-side copy of
	// every trace report; a nil logger disables the copy.
	TraceLog func() *log.Logger
}

// endpointHandles are one endpoint's metrics. Status
// counters are resolved on first sight of a code, so a registry only ever
// lists the codes an endpoint actually answered.
type endpointHandles struct {
	reg      *Registry
	prefix   string // "http.requests.<endpoint>."
	inflight *Gauge
	latency  *Histogram
	codes    atomic.Pointer[[]codeCounter]
}

type codeCounter struct {
	code int
	n    *Counter
}

func (e *endpointHandles) requests(code int) *Counter {
	var seen []codeCounter
	if p := e.codes.Load(); p != nil {
		seen = *p
	}
	for _, cc := range seen {
		if cc.code == code {
			return cc.n
		}
	}
	n := e.reg.Counter(e.prefix + strconv.Itoa(code))
	// Copy-on-write: a racing first sight of another code may drop this
	// entry, and the next request re-resolves it to the same counter.
	next := append(seen[:len(seen):len(seen)], codeCounter{code, n})
	e.codes.Store(&next)
	return n
}

// Wrap returns h behind the middleware, reporting under endpoint.
//
// With a fake-clock registry the middleware consumes exactly two clock
// reads per untraced request (start and stop), so scripted tests can
// assert exact latency bucket counts.
func (m *Middleware) Wrap(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	// Resolved on first use, so a registry lists only the endpoints that
	// served a request.
	handles := sync.OnceValue(func() *endpointHandles {
		return &endpointHandles{
			reg:      m.Registry,
			prefix:   "http.requests." + endpoint + ".",
			inflight: m.Registry.Gauge("http.inflight"),
			latency:  m.Registry.Histogram("http.latency."+endpoint+".seconds", nil),
		}
	})
	return func(w http.ResponseWriter, r *http.Request) {
		clock := m.Registry.Clock()
		start := clock.Now()
		eh := handles()
		eh.inflight.Inc()
		defer eh.inflight.Dec()

		// Propagate the client's request ID when it is well-formed; mint one
		// otherwise, replacing it on the request too so a handler that
		// forwards the request (the gateway) sends its shard the same ID. The
		// ID is always echoed so clients can correlate.
		id := SanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = m.IDs.Next()
			r.Header.Set(RequestIDHeader, id)
		}
		w.Header().Set(RequestIDHeader, id)

		var tr *Trace
		if r.URL.Query().Get("trace") == "1" {
			tr = NewTrace(id, clock)
			r = r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, tr))
		}

		rec := &StatusRecorder{ResponseWriter: w}
		h(rec, r)

		code := rec.Code()
		eh.requests(code).Inc()
		eh.latency.Observe(Since(clock, start).Seconds())
		if tr != nil && m.TraceLog != nil {
			if l := m.TraceLog(); l != nil {
				l.Printf("%s %s -> %d %s", r.Method, endpoint, code, tr.Report())
			}
		}
	}
}

// traceCtxKey keys the per-request *Trace in the request context.
type traceCtxKey struct{}

// TraceFrom returns the trace the middleware attached to r, or nil when the
// request is untraced — every *Trace method is nil-safe, so handlers use
// the result unconditionally.
func TraceFrom(r *http.Request) *Trace {
	tr, _ := r.Context().Value(traceCtxKey{}).(*Trace)
	return tr
}

// StatusRecorder captures the status code a handler writes so the
// middleware can label its per-status counter.
type StatusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *StatusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *StatusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	if err != nil {
		return n, fmt.Errorf("obs: response write: %w", err)
	}
	return n, nil
}

// Code reports the recorded status. A handler that wrote nothing, or a body
// without an explicit WriteHeader, implies 200, mirroring net/http.
func (r *StatusRecorder) Code() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// WriteJSON replies 200 with v encoded as a JSON document.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing recoverable.
		return
	}
}

// HTTPError replies with the given status and a {"error": msg} JSON body.
func HTTPError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Handler serves the registry as JSON — mounted at /v1/metrics by the
// controller. The snapshot is sorted by name, so identical states produce
// identical bytes.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		WriteJSON(w, r.Snapshot())
	})
}

// TextHandler serves the registry as a human-readable dump — the
// /debug/vars-style endpoint for operators with curl and no jq.
func TextHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, r.Snapshot().Text())
	})
}

// Text renders the snapshot as aligned name/value lines: counters and
// gauges one per line, histograms as count/mean/p50/p99 summaries followed
// by their non-empty buckets.
func (s Snapshot) Text() string {
	var b strings.Builder
	width := 0
	for _, c := range s.Counters {
		width = maxInt(width, len(c.Name))
	}
	for _, g := range s.Gauges {
		width = maxInt(width, len(g.Name))
	}
	for _, h := range s.Histograms {
		width = maxInt(width, len(h.Name))
	}
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%-*s %d\n", width, c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "%-*s %d\n", width, g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		p99, saturated := h.QuantileSaturated(0.99)
		mark := ""
		if saturated {
			// The rank lands in the +Inf bucket: the printed value is the
			// last finite bound acting as a floor, not an estimate.
			mark = "+"
		}
		fmt.Fprintf(&b, "%-*s count=%d mean=%.6g p50=%.6g p99=%.6g%s overflow=%d\n",
			width, h.Name, h.Count, h.Mean(), h.Quantile(0.5), p99, mark, h.Overflow)
		for _, bk := range h.Buckets {
			if bk.Count == 0 {
				continue
			}
			if math.IsInf(bk.UpperBound, 1) {
				fmt.Fprintf(&b, "%-*s   le=+Inf %d\n", width, "", bk.Count)
				continue
			}
			fmt.Fprintf(&b, "%-*s   le=%g %d\n", width, "", bk.UpperBound, bk.Count)
		}
	}
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MarshalJSON encodes the +Inf overflow bound as the string "+Inf": JSON
// has no infinity literal and the default encoder rejects it.
func (b BucketValue) MarshalJSON() ([]byte, error) {
	le := any(b.UpperBound)
	if math.IsInf(b.UpperBound, 1) {
		le = "+Inf"
	}
	return json.Marshal(struct {
		Le    any    `json:"le"`
		Count uint64 `json:"count"`
	}{Le: le, Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON, accepting both numeric
// bounds and the "+Inf" sentinel — so clients (and the smoke example) can
// round-trip /v1/metrics responses.
func (b *BucketValue) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    any    `json:"le"`
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch le := raw.Le.(type) {
	case string:
		if le != "+Inf" {
			return fmt.Errorf("obs: invalid bucket bound %q", le)
		}
		b.UpperBound = math.Inf(1)
	case float64:
		b.UpperBound = le
	default:
		return fmt.Errorf("obs: invalid bucket bound %v", raw.Le)
	}
	b.Count = raw.Count
	return nil
}
