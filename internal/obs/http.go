package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
)

// StatusRecorder captures the status code a handler writes so a request
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
