package gateway

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"

	"predictddl/internal/core"
	"predictddl/internal/obs"
)

// ReplicaStatus is one shard's row in the topology view.
type ReplicaStatus struct {
	URL   string `json:"url"`
	Shard string `json:"shard"` // stable metric label, s0..sN-1
	Up    bool   `json:"up"`
	Error string `json:"error,omitempty"` // last health failure while down
	// Datasets and LiveServers echo the replica's own status when it is
	// reachable.
	Datasets    []string `json:"datasets,omitempty"`
	LiveServers int      `json:"live_servers"`
}

// TopologyStatus is the gateway's /v1/status reply: the union view a
// client of a single controller would see (embedded StatusResponse — same
// fields, so existing clients parse it unchanged), plus the per-replica
// topology and the ring's dataset assignments.
type TopologyStatus struct {
	core.StatusResponse
	Replicas    []ReplicaStatus   `json:"replicas"`
	Assignments map[string]string `json:"assignments,omitempty"` // dataset → shard label
}

// handleStatus aggregates /v1/status across the topology: datasets, GHN
// datasets, and live hosts are unioned over every reachable replica —
// with inventory replication converged, each replica already reports the
// whole cluster, and the union makes the view robust while it converges.
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		obs.HTTPError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	obs.WriteJSON(w, g.TopologyStatus(r))
}

// TopologyStatus assembles the aggregated status (also used by tests and
// the livecluster smoke directly).
func (g *Gateway) TopologyStatus(r *http.Request) TopologyStatus {
	rows := g.health.snapshot()
	statuses := make([]*core.StatusResponse, len(rows))
	var wg sync.WaitGroup
	for i, row := range rows {
		if !row.Up {
			continue
		}
		wg.Add(1)
		go func(i int, replica string) {
			defer wg.Done()
			res := g.forwardOnce(r, replica, "/v1/status", "", nil)
			if res.shed || res.lostTo != nil || res.code != http.StatusOK {
				return
			}
			var st core.StatusResponse
			if json.Unmarshal(res.body, &st) == nil {
				statuses[i] = &st
			}
		}(i, row.Replica)
	}
	wg.Wait()

	datasets := make(map[string]struct{})
	ghn := make(map[string]struct{})
	hosts := make(map[string]struct{})
	out := TopologyStatus{Replicas: make([]ReplicaStatus, len(rows))}
	for i, row := range rows {
		rep := ReplicaStatus{URL: row.Replica, Shard: g.labels[row.Replica], Up: row.Up, Error: row.LastErr}
		if st := statuses[i]; st != nil {
			rep.Datasets = st.Datasets
			rep.LiveServers = st.LiveServers
			for _, d := range st.Datasets {
				datasets[d] = struct{}{}
			}
			for _, d := range st.GHNDatasets {
				ghn[d] = struct{}{}
			}
			for _, h := range st.LiveHosts {
				hosts[h] = struct{}{}
			}
		}
		out.Replicas[i] = rep
	}
	out.Datasets = sortedKeys(datasets)
	out.GHNDatasets = sortedKeys(ghn)
	out.LiveHosts = sortedKeys(hosts)
	out.LiveServers = len(out.LiveHosts)

	if len(out.Datasets) > 0 {
		byURL := g.ring.Assignments(out.Datasets)
		out.Assignments = make(map[string]string, len(byURL))
		for d, url := range byURL {
			out.Assignments[d] = g.labels[url]
		}
	}
	return out
}

func sortedKeys(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
