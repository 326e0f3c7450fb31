package gateway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"predictddl/internal/core"
	"predictddl/internal/obs"
)

// candidates returns a dataset's failover chain — the live replicas in
// ring order starting at the owner — minus any replicas the caller has
// already excluded this request.
func (g *Gateway) candidates(dataset string, excluded map[string]bool) []string {
	chain := g.ring.Successors(dataset, len(g.ring.Members()))
	out := chain[:0:0]
	for _, c := range chain {
		if excluded[c] || !g.health.isUp(c) {
			continue
		}
		out = append(out, c)
	}
	return out
}

// forwardResult is the outcome of one forwarded request.
type forwardResult struct {
	code    int
	header  http.Header
	body    []byte
	shed    bool  // refused locally by the shard's inflight cap
	lostTo  error // transport failure; replica marked down
	replica string
}

// forwardOnce sends one request to a single replica, accounting it
// against the shard's inflight cap and metric family. A transport error
// marks the replica down (feeding the rebalance counter) and is returned
// in lostTo so the caller can walk the failover chain.
func (g *Gateway) forwardOnce(r *http.Request, replica, path, rawQuery string, body []byte) forwardResult {
	res := forwardResult{replica: replica}
	lim := g.limiters[replica]
	if !lim.TryAcquire() {
		g.shardSheds[replica].Inc()
		g.shedTotal.Inc()
		res.shed = true
		return res
	}
	defer lim.Release()
	g.shardReqs[replica].Inc()

	url := replica + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, reqBody)
	if err != nil {
		g.shardErrs[replica].Inc()
		res.lostTo = fmt.Errorf("gateway: build forward request: %w", err)
		return res
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := r.Header.Get(obs.RequestIDHeader); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := g.opts.Client.Do(req)
	if err != nil {
		g.shardErrs[replica].Inc()
		if g.health.markDown(replica, err) {
			g.applyTransitions(1)
		}
		res.lostTo = fmt.Errorf("gateway: forward to %s: %w", replica, err)
		return res
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		g.shardErrs[replica].Inc()
		if g.health.markDown(replica, err) {
			g.applyTransitions(1)
		}
		res.lostTo = fmt.Errorf("gateway: read reply from %s: %w", replica, err)
		return res
	}
	res.code, res.header, res.body = resp.StatusCode, resp.Header, respBody
	return res
}

// handlePredict routes one prediction to its dataset's shard, walking the
// failover chain when the owner is dark. A 404 from a live replica passes
// through untouched (the dataset truly is unknown); only when every
// candidate is unreachable does the gateway answer its own 503 — degraded,
// not overloaded, so no Retry-After.
func (g *Gateway) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req core.PredictRequest
	body, ok := core.Admit(w, r, nil, g.opts.MaxBodyBytes, &req)
	if !ok {
		return
	}

	excluded := make(map[string]bool)
	for attempt := 0; attempt <= len(g.ring.Members()); attempt++ {
		chain := g.candidates(req.Dataset, excluded)
		if len(chain) == 0 {
			break
		}
		replica := chain[0]
		res := g.forwardOnce(r, replica, "/v1/predict", r.URL.RawQuery, body)
		switch {
		case res.shed:
			// A saturated owner sheds rather than spilling to the
			// successor: spilling would trade a bounded 503 burst for
			// cache-cold successors and a load cascade.
			core.WriteShed(w, "shard "+g.labels[replica]+" saturated; retry shortly")
			return
		case res.lostTo != nil:
			excluded[replica] = true
			continue
		default:
			relayResponse(w, res)
			return
		}
	}
	writeDegraded(w, req.Dataset)
}

// handleModels proxies the model-zoo listing from any live replica — the
// zoo is code, identical on all of them.
func (g *Gateway) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		obs.HTTPError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	excluded := make(map[string]bool)
	for range g.ring.Members() {
		up := g.liveFirst(excluded)
		if up == "" {
			break
		}
		res := g.forwardOnce(r, up, "/v1/models", r.URL.RawQuery, nil)
		if res.shed {
			core.WriteShed(w, "shard "+g.labels[up]+" saturated; retry shortly")
			return
		}
		if res.lostTo != nil {
			excluded[up] = true
			continue
		}
		relayResponse(w, res)
		return
	}
	obs.HTTPError(w, http.StatusServiceUnavailable, "degraded: no live replicas")
}

// liveFirst returns the first live, non-excluded replica in sorted order.
func (g *Gateway) liveFirst(excluded map[string]bool) string {
	for _, rep := range g.ring.Members() {
		if !excluded[rep] && g.health.isUp(rep) {
			return rep
		}
	}
	return ""
}

// relayResponse copies a forwarded reply to the client: status, body, and
// the headers that carry contract (content type, Retry-After on a shard's
// own shed, request ID already set by the middleware).
func relayResponse(w http.ResponseWriter, res forwardResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(res.code)
	_, _ = w.Write(res.body)
}

// writeDegraded answers for a dataset whose entire candidate chain is
// unreachable: 503 without Retry-After — the client's next try should go
// through whenever a replica returns, not after a fixed pause. Distinct
// from a shed 503, which always carries Retry-After.
func writeDegraded(w http.ResponseWriter, dataset string) {
	msg := "degraded: no live replica for dataset"
	if dataset != "" {
		msg = fmt.Sprintf("degraded: no live replica for dataset %q", dataset)
	}
	obs.HTTPError(w, http.StatusServiceUnavailable, msg)
}
