package gateway_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/gateway"
	"predictddl/internal/graph"
	"predictddl/internal/load"
	"predictddl/internal/tensor"
)

// startReplicas stands up n synthetic controllers behind httptest servers,
// each serving every dataset (the gateway shards routing, not data).
func startReplicas(t *testing.T, n int, datasets ...string) ([]*httptest.Server, []string) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		ctrl, err := load.NewSyntheticController(int64(i+1), datasets...)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = httptest.NewServer(ctrl.Handler())
		urls[i] = servers[i].URL
		t.Cleanup(servers[i].Close)
	}
	return servers, urls
}

// datasetOwnedBy finds a dataset name (from the given set) whose ring
// owner is the wanted replica.
func datasetOwnedBy(t *testing.T, r *gateway.Ring, datasets []string, owner string) string {
	t.Helper()
	for _, d := range datasets {
		if got, ok := r.Owner(d); ok && got == owner {
			return d
		}
	}
	t.Fatalf("no dataset in %v owned by %s", datasets, owner)
	return ""
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func predictBody(dataset string) string {
	return fmt.Sprintf(`{"dataset":%q,"model":"resnet18","num_servers":2}`, dataset)
}

// TestGatewayRoutesAndAggregates: predictions for every dataset succeed
// through the gateway, per-shard counters move on ≥ 2 shards, and
// /v1/status unions the topology.
func TestGatewayRoutesAndAggregates(t *testing.T) {
	datasets := ringKeys(16)
	_, urls := startReplicas(t, 2, datasets...)
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	for _, d := range datasets {
		resp, body := postJSON(t, front.URL+"/v1/predict", predictBody(d))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s = %d: %s", d, resp.StatusCode, body)
		}
		var pr core.PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil || pr.Dataset != d {
			t.Fatalf("predict %s reply = %s (err %v)", d, body, err)
		}
	}

	// Routing must actually spread: with 16 datasets on a 2-member ring,
	// both shards see traffic (chance of a one-sided split is 2^-15).
	snap := gw.Metrics().Snapshot()
	active := 0
	for _, u := range urls {
		if snap.Counter("gateway.shard."+gw.ShardLabel(u)+".requests") > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("traffic hit %d shards, want 2 (per-shard counters: %v)", active, snap.Counters)
	}

	var st gateway.TopologyStatus
	resp, body := getJSON(t, front.URL+"/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Datasets) != len(datasets) || len(st.Replicas) != 2 {
		t.Fatalf("topology = %+v", st)
	}
	// Every replica registers its engines' GHNs, so the union is the served
	// datasets, not empty.
	if !reflect.DeepEqual(st.GHNDatasets, st.Datasets) {
		t.Fatalf("ghn_datasets = %v, want the served datasets %v", st.GHNDatasets, st.Datasets)
	}
	for _, rep := range st.Replicas {
		if !rep.Up || rep.Shard == "" {
			t.Fatalf("replica row = %+v, want up with shard label", rep)
		}
	}
	if len(st.Assignments) != len(datasets) {
		t.Fatalf("assignments = %v, want one per dataset", st.Assignments)
	}

	// Models proxy through any live replica.
	resp, body = getJSON(t, front.URL+"/v1/models")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "resnet18") {
		t.Fatalf("models = %d: %s", resp.StatusCode, body)
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestGatewayFailoverOnDeadReplica: killing a replica mid-traffic fails
// its datasets over to the ring successor within the same request, and
// the rebalance counter moves.
func TestGatewayFailoverOnDeadReplica(t *testing.T) {
	datasets := ringKeys(24)
	servers, urls := startReplicas(t, 3, datasets...)
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	victimIdx := 1
	victim := urls[victimIdx]
	ds := datasetOwnedBy(t, gw.Ring(), datasets, victim)
	servers[victimIdx].Close()

	// No health round between the kill and the request: the gateway
	// discovers the death from the transport error and fails over inside
	// this very request.
	resp, body := postJSON(t, front.URL+"/v1/predict", predictBody(ds))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict %s after killing its owner = %d: %s", ds, resp.StatusCode, body)
	}
	snap := gw.Metrics().Snapshot()
	if snap.Counter("gateway.ring.rebalances") == 0 {
		t.Fatal("gateway.ring.rebalances = 0 after a replica death")
	}
	if snap.Counter("gateway.shard."+gw.ShardLabel(victim)+".errors") == 0 {
		t.Fatal("dead shard's error counter did not move")
	}

	// The health view converges and /v1/status reports the dead replica.
	gw.CheckNow(context.Background())
	var st gateway.TopologyStatus
	respS, bodyS := getJSON(t, front.URL+"/v1/status")
	if respS.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", respS.StatusCode)
	}
	if err := json.Unmarshal(bodyS, &st); err != nil {
		t.Fatal(err)
	}
	downs := 0
	for _, rep := range st.Replicas {
		if !rep.Up {
			downs++
			if rep.URL != victim {
				t.Fatalf("wrong replica down: %+v", rep)
			}
		}
	}
	if downs != 1 {
		t.Fatalf("%d replicas down in status, want 1: %+v", downs, st.Replicas)
	}
	// Every dataset is still served.
	for _, d := range datasets {
		resp, body := postJSON(t, front.URL+"/v1/predict", predictBody(d))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s with one replica down = %d: %s", d, resp.StatusCode, body)
		}
	}
}

// TestGatewayFailoverUnderInjectedPartition: the replica process is alive
// but unreachable (every dial to it fails) — the deterministic network
// partition. The gateway must treat it exactly like a dead replica.
func TestGatewayFailoverUnderInjectedPartition(t *testing.T) {
	datasets := ringKeys(24)
	_, urls := startReplicas(t, 2, datasets...)
	partitioned := urls[0]
	partHost := strings.TrimPrefix(partitioned, "http://")

	dialer := &net.Dialer{Timeout: 2 * time.Second}
	client := &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				if addr == partHost {
					return nil, fmt.Errorf("injected partition: %s unreachable", addr)
				}
				return dialer.DialContext(ctx, network, addr)
			},
		},
	}
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: 1, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	ds := datasetOwnedBy(t, gw.Ring(), datasets, partitioned)
	resp, body := postJSON(t, front.URL+"/v1/predict", predictBody(ds))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict %s across partition = %d: %s", ds, resp.StatusCode, body)
	}
	snap := gw.Metrics().Snapshot()
	if snap.Counter("gateway.ring.rebalances") == 0 {
		t.Fatal("partition caused no rebalance")
	}
}

// TestGatewayBatchFailoverReroutes: with failover ON, the same scenario
// serves every item — the dead shard's items re-route to the successor.
func TestGatewayBatchFailoverReroutes(t *testing.T) {
	datasets := ringKeys(24)
	servers, urls := startReplicas(t, 2, datasets...)
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	deadDS := datasetOwnedBy(t, gw.Ring(), datasets, urls[1])
	servers[1].Close()

	batch := fmt.Sprintf(`{"requests":[{"dataset":%q,"model":"resnet18","num_servers":2}]}`, deadDS)
	resp, body := postJSON(t, front.URL+"/v1/predict/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, body)
	}
	var br core.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 1 || br.Results[0].Code != 0 || br.Results[0].Error != "" {
		t.Fatalf("failover batch item = %+v, want success via successor", br.Results)
	}
	if h, ok := gw.Metrics().Snapshot().HistogramByName("gateway.fanout.latency.seconds"); !ok || h.Count == 0 {
		t.Fatal("gateway.fanout.latency.seconds recorded no observations")
	}
}

// TestGateway404VersusDegraded: an unknown dataset through a live shard is
// the replica's own 404; the same request with every candidate dark is the
// gateway's 503 — degraded, without Retry-After. A batch with every
// candidate dark keeps the per-item contract: the request is 200 and each
// item carries its own degraded 503.
func TestGateway404VersusDegraded(t *testing.T) {
	servers, urls := startReplicas(t, 2, "cifar10")
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	resp, body := postJSON(t, front.URL+"/v1/predict", predictBody("no-such-dataset"))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset via live shard = %d, want 404: %s", resp.StatusCode, body)
	}

	servers[0].Close()
	servers[1].Close()
	gw.CheckNow(context.Background())
	resp, body = postJSON(t, front.URL+"/v1/predict", predictBody("no-such-dataset"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all replicas dark = %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("degraded 503 carries Retry-After %q — that header is the shed signature", ra)
	}
	if !strings.Contains(string(body), "degraded") {
		t.Fatalf("degraded 503 body = %s", body)
	}

	batch := fmt.Sprintf(`{"requests":[%s,%s]}`, predictBody("cifar10"), predictBody("no-such-dataset"))
	resp, body = postJSON(t, front.URL+"/v1/predict/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with all replicas dark = %d, want 200 (failures are per item): %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("batch with all replicas dark carries Retry-After %q", ra)
	}
	var br core.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("%d results, want 2: %s", len(br.Results), body)
	}
	for i, item := range br.Results {
		if item.Code != http.StatusServiceUnavailable || !strings.Contains(item.Error, "no live replica") {
			t.Fatalf("item %d with all replicas dark: code %d err %q, want a per-item 503 naming no live replica", i, item.Code, item.Error)
		}
	}
}

// TestGatewayShedPerShard: a saturated shard sheds with 503 + Retry-After
// and does NOT spill to its successor, while other shards keep serving.
func TestGatewayShedPerShard(t *testing.T) {
	// Two stub replicas: one blocks inside predict until released, the
	// other answers instantly. Stubs, not real controllers, so saturation
	// is deterministic.
	release := make(chan struct{})
	blockingHits := make(chan struct{}, 16)
	mkStub := func(blocking bool) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/status" {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprint(w, `{"datasets":["x"],"live_servers":0}`)
				return
			}
			if blocking {
				blockingHits <- struct{}{}
				<-release
			}
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Path == "/v1/predict/batch" {
				var br core.BatchRequest
				_ = json.NewDecoder(r.Body).Decode(&br)
				_ = json.NewEncoder(w).Encode(core.BatchResponse{Results: make([]core.BatchItem, len(br.Requests))})
				return
			}
			fmt.Fprint(w, `{"dataset":"x","predicted_seconds":1}`)
		}))
	}
	slow := mkStub(true)
	fast := mkStub(false)
	defer slow.Close()
	defer fast.Close()

	urls := []string{slow.URL, fast.URL}
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: 1, ShardInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	// Registered after front: runs first on teardown, so the parked
	// request unblocks before front.Close waits on open connections.
	defer close(release)

	keys := ringKeys(64)
	slowDS := datasetOwnedBy(t, gw.Ring(), keys, slow.URL)
	fastDS := datasetOwnedBy(t, gw.Ring(), keys, fast.URL)

	// Park one request inside the slow shard, holding its only slot.
	go func() {
		resp, err := http.Post(front.URL+"/v1/predict", "application/json",
			strings.NewReader(predictBody(slowDS)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-blockingHits:
	case <-time.After(5 * time.Second):
		t.Fatal("parked request never reached the slow shard")
	}

	// The slow shard's next request sheds — Retry-After present, no spill
	// to the fast shard.
	resp, body := postJSON(t, front.URL+"/v1/predict", predictBody(slowDS))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated shard = %d, want 503: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("shed Retry-After = %q, want \"1\"", got)
	}

	// The other shard is unaffected.
	resp, body = postJSON(t, front.URL+"/v1/predict", predictBody(fastDS))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy shard while sibling saturated = %d: %s", resp.StatusCode, body)
	}

	// Batch items for the saturated shard shed per item; the rest succeed.
	batch := fmt.Sprintf(`{"requests":[{"dataset":%q},{"dataset":%q}]}`, slowDS, fastDS)
	resp, body = postJSON(t, front.URL+"/v1/predict/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with saturated shard = %d: %s", resp.StatusCode, body)
	}
	var br core.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Results[0].Code != http.StatusServiceUnavailable || br.Results[1].Code != 0 {
		t.Fatalf("batch shed contract broken: %+v", br.Results)
	}

	snap := gw.Metrics().Snapshot()
	slowLabel := gw.ShardLabel(slow.URL)
	fastLabel := gw.ShardLabel(fast.URL)
	if snap.Counter("gateway.shard."+slowLabel+".shed") < 2 {
		t.Fatalf("slow shard shed counter = %d, want >= 2", snap.Counter("gateway.shard."+slowLabel+".shed"))
	}
	if snap.Counter("gateway.shed.total") < 2 {
		t.Fatalf("gateway.shed.total = %d, want >= 2", snap.Counter("gateway.shed.total"))
	}
	if snap.Counter("gateway.shard."+fastLabel+".shed") != 0 {
		t.Fatal("fast shard shed counter moved — shed spilled across shards")
	}
}

// TestGatewayInventoryReplication: each replica's collector starts seeing
// only its own agent; one replication round through the gateway gives
// every collector — and therefore every replica's status — the whole
// topology.
func TestGatewayInventoryReplication(t *testing.T) {
	datasets := []string{"cifar10"}
	collectors := make([]*cluster.Collector, 2)
	ctrls := make([]*core.Controller, 2)
	servers := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	addrs := make([]string, 2)
	for i := 0; i < 2; i++ {
		ctrl, err := load.NewSyntheticController(int64(i+1), datasets...)
		if err != nil {
			t.Fatal(err)
		}
		col, err := cluster.NewCollector("127.0.0.1:0", cluster.CollectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { col.Close() })
		ctrl.SetCollector(col)
		collectors[i], ctrls[i] = col, ctrl
		servers[i] = httptest.NewServer(ctrl.Handler())
		t.Cleanup(servers[i].Close)
		urls[i] = servers[i].URL
		addrs[i] = col.Addr()

		agent, err := cluster.DialAgent(col.Addr(), fmt.Sprintf("host-%c", 'a'+i), cluster.SpecGPUP100())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { agent.Close() })
	}
	for i, col := range collectors {
		deadline := time.Now().Add(3 * time.Second)
		for len(col.Snapshot()) != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("agent %d never registered", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	gw, err := gateway.New(gateway.Options{Replicas: urls, CollectorAddrs: addrs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	pushed, err := gw.ReplicateNow(context.Background())
	if err != nil {
		t.Fatalf("replication round: %v", err)
	}
	if pushed != 2 {
		t.Fatalf("pushed to %d collectors, want 2", pushed)
	}
	for i, col := range collectors {
		deadline := time.Now().Add(3 * time.Second)
		for len(col.Snapshot()) != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("collector %d sees %d hosts after replication, want 2", i, len(col.Snapshot()))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	var st gateway.TopologyStatus
	resp, body := getJSON(t, front.URL+"/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.LiveServers != 2 || len(st.LiveHosts) != 2 ||
		st.LiveHosts[0] != "host-a" || st.LiveHosts[1] != "host-b" {
		t.Fatalf("aggregated status = %+v, want both hosts live", st.StatusResponse)
	}
	snap := gw.Metrics().Snapshot()
	if snap.Counter("gateway.replicate.pushes") != 2 {
		t.Fatalf("gateway.replicate.pushes = %d, want 2", snap.Counter("gateway.replicate.pushes"))
	}
}

// TestGatewayAdmission: the front door enforces the same admission
// contract as a controller — method, JSON validity, batch caps.
func TestGatewayAdmission(t *testing.T) {
	_, urls := startReplicas(t, 1, "cifar10")
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: 1, MaxBatchItems: 2, MaxBodyBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"predict GET", http.MethodGet, "/v1/predict", "", http.StatusMethodNotAllowed},
		{"batch GET", http.MethodGet, "/v1/predict/batch", "", http.StatusMethodNotAllowed},
		{"predict bad JSON", http.MethodPost, "/v1/predict", "{", http.StatusBadRequest},
		{"batch bad JSON", http.MethodPost, "/v1/predict/batch", "{", http.StatusBadRequest},
		{"empty batch", http.MethodPost, "/v1/predict/batch", `{"requests":[]}`, http.StatusBadRequest},
		{"over batch cap", http.MethodPost, "/v1/predict/batch",
			`{"requests":[{"dataset":"a"},{"dataset":"b"},{"dataset":"c"}]}`, http.StatusRequestEntityTooLarge},
		{"oversized body", http.MethodPost, "/v1/predict",
			`{"dataset":"` + strings.Repeat("x", 1<<17) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, front.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestGatewayConcurrentRebalanceAndTraffic is the -race stress: live
// traffic races health rounds and ring membership churn. The assertions
// are weak on purpose (no panics, every request answered); the value is
// the race detector over the rebalance/traffic interleavings.
func TestGatewayConcurrentRebalanceAndTraffic(t *testing.T) {
	datasets := []string{"cifar10", "mnist", "svhn"}
	_, urls := startReplicas(t, 2, datasets...)
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: 1, ShardInflight: 32})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Traffic: concurrent predicts and batches across all datasets.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				ds := datasets[(w+i)%len(datasets)]
				if i%3 == 0 {
					body := fmt.Sprintf(`{"requests":[{"dataset":%q,"model":"resnet18","num_servers":2}]}`, ds)
					resp, err := http.Post(front.URL+"/v1/predict/batch", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("batch transport error: %v", err)
						return
					}
					resp.Body.Close()
					continue
				}
				resp, err := http.Post(front.URL+"/v1/predict", "application/json", strings.NewReader(predictBody(ds)))
				if err != nil {
					t.Errorf("predict transport error: %v", err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	// Rebalance churn: membership flaps between the full set and one
	// member while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			gw.Ring().SetMembers([]string{urls[0]})
			gw.Ring().SetMembers(urls)
		}
	}()
	// Health rounds race both.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			gw.CheckNow(ctx)
		}
	}()
	wg.Wait()
}

// TestGatewayRunStopsOnCancel: the background loops observe cancellation.
func TestGatewayRunStopsOnCancel(t *testing.T) {
	_, urls := startReplicas(t, 1, "cifar10")
	gw, err := gateway.New(gateway.Options{
		Replicas:          urls,
		Seed:              1,
		HealthInterval:    10 * time.Millisecond,
		ReplicateInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		gw.Run(ctx)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on context cancellation")
	}
}

// TestGatewayCustomGraphParity is one edge of the all-routes parity harness
// (ROADMAP 1(g)): the gateway decodes a custom graph.Spec to route it and,
// for a batch, marshals it again per shard, so a graph must reach the shard
// meaning what the client sent. predicted_seconds through the gateway, for a
// single predict and for the items of a cross-shard batch, has the bits of
// the owning controller hit directly.
func TestGatewayCustomGraphParity(t *testing.T) {
	datasets := ringKeys(24)
	_, urls := startReplicas(t, 2, datasets...)
	gw, err := gateway.New(gateway.Options{Replicas: urls, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	rng := tensor.NewRNG(16)
	var reqs []core.PredictRequest
	var owners []string
	for i := 0; i < 6; i++ {
		owner := urls[i%2]
		owners = append(owners, owner)
		reqs = append(reqs, core.PredictRequest{
			Dataset:    datasetOwnedBy(t, gw.Ring(), datasets, owner),
			Graph:      graph.RandomGraph(rng, graph.DefaultConfig()).Spec(),
			NumServers: 1 + i,
		})
	}
	predict := func(base string, req core.PredictRequest) float64 {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, reply := postJSON(t, base+"/v1/predict", string(body))
		var pr core.PredictResponse
		if err := json.Unmarshal(reply, &pr); err != nil || resp.StatusCode != http.StatusOK || pr.PredictedSeconds == 0 {
			t.Fatalf("predict via %s = %d %s (err %v)", base, resp.StatusCode, reply, err)
		}
		return pr.PredictedSeconds
	}
	direct := make([]float64, len(reqs))
	for i, req := range reqs {
		direct[i] = predict(owners[i], req)
		if routed := predict(front.URL, req); math.Float64bits(routed) != math.Float64bits(direct[i]) {
			t.Errorf("request %d: %v through the gateway, %v from its shard", i, routed, direct[i])
		}
	}

	body, err := json.Marshal(core.BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	resp, reply := postJSON(t, front.URL+"/v1/predict/batch", string(body))
	var br core.BatchResponse
	if err := json.Unmarshal(reply, &br); err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != len(reqs) {
		t.Fatalf("batch = %d, %d results (err %v): %.200s", resp.StatusCode, len(br.Results), err, reply)
	}
	for i, item := range br.Results {
		if item.Error != "" || math.Float64bits(item.PredictedSeconds) != math.Float64bits(direct[i]) {
			t.Errorf("batch item %d: %v %q through the gateway, %v from its shard", i, item.PredictedSeconds, item.Error, direct[i])
		}
	}
}
