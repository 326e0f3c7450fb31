package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"predictddl/internal/core"
	"predictddl/internal/obs"
)

// handleBatch scatters a batch across the owning shards and reassembles
// the per-item outcomes in request order. The PR 3 per-item status
// contract survives sharding: one dead shard yields per-item 503s for its
// items while the rest of the batch succeeds, and the whole request stays
// 200 whenever the batch itself was admissible.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req core.BatchRequest
	if _, ok := core.Admit(w, r, nil, g.opts.MaxBodyBytes, &req); !ok {
		return
	}
	if core.RejectBatch(w, len(req.Requests), g.opts.MaxBatchItems) {
		return
	}

	clock := g.reg.Clock()
	start := clock.Now()
	results := g.fanout(r, req.Requests)
	g.fanoutHist.Observe(obs.Since(clock, start).Seconds())
	obs.WriteJSON(w, core.BatchResponse{Results: results})
}

// fanout routes every item to its owning shard, sends one sub-batch per
// shard concurrently, and walks failover chains for items whose shard dies
// mid-flight. Items keep their request-order slots throughout.
func (g *Gateway) fanout(r *http.Request, items []core.PredictRequest) []core.BatchItem {
	results := make([]core.BatchItem, len(items))
	pending := make([]int, len(items))
	for i := range items {
		pending[i] = i
	}

	// Each pass groups the still-pending items by their first live
	// candidate and sends the sub-batches concurrently. A shard lost
	// mid-pass re-queues its items for the next pass, whose chains then
	// skip it; at most len(replicas) passes before every chain is empty.
	for attempt := 0; attempt <= len(g.ring.Members()) && len(pending) > 0; attempt++ {
		groups := make(map[string][]int)
		var unroutable []int
		for _, idx := range pending {
			// Replicas lost in earlier passes were marked down by
			// forwardOnce, so the health filter inside candidates already
			// excludes them.
			chain := g.candidates(items[idx].Dataset, nil)
			if len(chain) == 0 {
				unroutable = append(unroutable, idx)
				continue
			}
			groups[chain[0]] = append(groups[chain[0]], idx)
		}
		for _, idx := range unroutable {
			results[idx] = core.BatchItem{
				Error: fmt.Sprintf("gateway: no live replica for dataset %q", items[idx].Dataset),
				Code:  http.StatusServiceUnavailable,
			}
		}
		pending = pending[:0]

		var mu sync.Mutex // guards pending re-queues across group goroutines
		var wg sync.WaitGroup
		for replica, idxs := range groups {
			wg.Add(1)
			go func(replica string, idxs []int) {
				defer wg.Done()
				if retry := g.sendGroup(r, replica, idxs, items, results); retry {
					mu.Lock()
					pending = append(pending, idxs...)
					mu.Unlock()
				}
			}(replica, idxs)
		}
		wg.Wait()
	}
	// Items still pending after the pass budget (pathological flapping):
	// report them degraded rather than dropping their slots.
	for _, idx := range pending {
		results[idx] = core.BatchItem{
			Error: fmt.Sprintf("gateway: no live replica for dataset %q", items[idx].Dataset),
			Code:  http.StatusServiceUnavailable,
		}
	}
	return results
}

// sendGroup forwards one shard's sub-batch and scatters the outcomes back
// into the request-order slots. Returns true when the shard was lost to a
// transport error and the items should be re-routed on the next pass.
func (g *Gateway) sendGroup(r *http.Request, replica string, idxs []int, items []core.PredictRequest, results []core.BatchItem) (retry bool) {
	sub := core.BatchRequest{Requests: make([]core.PredictRequest, len(idxs))}
	for i, idx := range idxs {
		sub.Requests[i] = items[idx]
	}
	body, err := json.Marshal(sub)
	if err != nil {
		for _, idx := range idxs {
			results[idx] = core.BatchItem{Error: "gateway: encode sub-batch: " + err.Error(), Code: http.StatusInternalServerError}
		}
		return false
	}
	res := g.forwardOnce(r, replica, "/v1/predict/batch", "", body)
	switch {
	case res.shed:
		// The owning shard is saturated: its items shed with the standard
		// Retry-After semantics, per item — the rest of the batch is
		// unaffected. No spill to the successor (see handlePredict).
		for _, idx := range idxs {
			results[idx] = core.BatchItem{
				Error: "shard " + g.labels[replica] + " saturated; retry after " + retryAfterText(),
				Code:  http.StatusServiceUnavailable,
			}
		}
		return false
	case res.lostTo != nil:
		return true
	case res.code != http.StatusOK:
		// The replica refused the whole sub-batch (its own shed or
		// admission cap): the refusal lands on each item.
		msg := string(res.body)
		var decoded struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(res.body, &decoded) == nil && decoded.Error != "" {
			msg = decoded.Error
		}
		for _, idx := range idxs {
			results[idx] = core.BatchItem{Error: "shard " + g.labels[replica] + ": " + msg, Code: res.code}
		}
		return false
	}
	var resp core.BatchResponse
	if err := json.Unmarshal(res.body, &resp); err != nil || len(resp.Results) != len(idxs) {
		for _, idx := range idxs {
			results[idx] = core.BatchItem{
				Error: "gateway: malformed sub-batch reply from shard " + g.labels[replica],
				Code:  http.StatusBadGateway,
			}
		}
		return false
	}
	for i, idx := range idxs {
		results[idx] = resp.Results[i]
	}
	return false
}

func retryAfterText() string {
	return fmt.Sprintf("%ds", core.RetryAfterSeconds)
}
