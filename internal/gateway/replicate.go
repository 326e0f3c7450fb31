package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
)

// ReplicateNow runs one inventory replication round: pull /v1/inventory
// from every live replica, merge the views (freshest observation of each
// host wins — the entry with the smallest age), and push the merged set to
// every configured collector address over the cluster wire protocol. Each
// collector applies the frame with its own first-hand-wins rules, so the
// push can never clobber what a collector knows directly.
//
// Returns the number of successful pushes and the joined errors of the
// failed pulls/pushes; a partially failed round still replicates to the
// peers it could reach.
func (g *Gateway) ReplicateNow(ctx context.Context) (pushed int, err error) {
	merged := make(map[string]cluster.WireServer)
	var errs []error
	for _, replica := range g.health.upSet() {
		entries, pullErr := g.pullInventory(ctx, replica)
		if pullErr != nil {
			errs = append(errs, pullErr)
			continue
		}
		for _, e := range entries {
			if have, ok := merged[e.Hostname]; !ok || e.AgeMS < have.AgeMS {
				merged[e.Hostname] = e
			}
		}
	}
	if len(merged) == 0 || len(g.opts.CollectorAddrs) == 0 {
		return 0, errors.Join(errs...)
	}
	entries := make([]cluster.WireServer, 0, len(merged))
	for _, e := range merged {
		entries = append(entries, e)
	}
	for _, addr := range g.opts.CollectorAddrs {
		if pushErr := cluster.SendInventory(addr, "gateway", entries, cluster.PushOptions{
			DialTimeout:  g.opts.HealthTimeout,
			WriteTimeout: g.opts.HealthTimeout,
		}); pushErr != nil {
			g.replErrors.Inc()
			errs = append(errs, pushErr)
			continue
		}
		g.replPushes.Inc()
		pushed++
	}
	return pushed, errors.Join(errs...)
}

// pullInventory fetches one replica's live inventory in wire form.
func (g *Gateway) pullInventory(ctx context.Context, replica string) ([]cluster.WireServer, error) {
	ctx, cancel := context.WithTimeout(ctx, g.opts.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, replica+"/v1/inventory", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &probeStatusError{replica: replica, code: resp.StatusCode}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var inv core.InventoryResponse
	if err := json.Unmarshal(body, &inv); err != nil {
		return nil, err
	}
	return inv.Servers, nil
}
