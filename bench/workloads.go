package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"predictddl/internal/graph"
	"predictddl/internal/tensor"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlWarm    = "warm_zoo"
	wlCold    = "cold_custom"
	wlChurn   = "batch_churn"
	wlGateway = "gateway_routed"
	wlOpen    = "open_mixed"
	wlOffline = "offline_fit"
)

var workloadNames = []string{wlWarm, wlCold, wlChurn, wlGateway, wlOpen, wlOffline}

const (
	predictPath = "/v1/predict"
	batchPath   = "/v1/predict/batch"

	churnItems   = 16   // items per batch_churn request
	gatewayItems = 8    // items per gateway_routed / open_mixed batch
	openRate     = 1500 // open_mixed arrivals per second
	streamPrefix = 256  // requests of each client's stream that load.stream_sha256 covers
)

// small bounds batch_churn's custom graphs (≈26 nodes, ≈2.7 KB of JSON)
// against ≈78 nodes and ≈8.2 KB for the default DARTS-style spec.
var small = graph.RandomSpec{MinStages: 1, MaxStages: 2, MinBlocks: 1, MaxBlocks: 2, MinChannels: 16}

// clientSeed separates the streams of one run: stream 0 builds the shared
// pools, streams 1.. drive the clients.
func clientSeed(seed int64, stream int) int64 { return seed*1009 + int64(stream) }

// zooJob is one (architecture, cluster size) pair of the 31 × 20 job list.
type zooJob struct{ model, n int }

func (e *env) zooBody(dataset string, j zooJob) []byte {
	return []byte(fmt.Sprintf(`{"dataset":%q,"model":%q,"num_servers":%d}`, dataset, e.zoo[j.model], j.n))
}

func (e *env) zooItem(j zooJob) item { return item{expect: e.expect[j.model][j.n-1], n: j.n} }

func (e *env) zooRequest(dataset string, j zooJob) *request {
	return &request{path: predictPath, body: e.zooBody(dataset, j), want: http.StatusOK, items: []item{e.zooItem(j)}}
}

// batchBody wraps rendered items into a /v1/predict/batch body.
func batchBody(items [][]byte) []byte {
	return append(append([]byte(`{"requests":[`), bytes.Join(items, []byte{','})...), "]}"...)
}

// customBody renders a custom-graph predict body around a marshalled spec.
func customBody(dataset string, spec []byte, n int) []byte {
	b := make([]byte, 0, len(spec)+64)
	b = append(b, `{"dataset":"`...)
	b = append(b, dataset...)
	b = append(b, `","graph":`...)
	b = append(b, spec...)
	b = append(b, `,"num_servers":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '}')
}

func mustSpec(g *graph.Graph) []byte {
	b, err := json.Marshal(g.Spec())
	if err != nil {
		panic(err) // a Spec is plain data; only a bug makes it unmarshallable
	}
	return b
}

// streamHash accumulates the canonical description of generated requests:
// what is asked, not the bytes, because gateway dataset names follow the
// replicas' ephemeral ports.
type streamHash struct{ w io.Writer }

func (h streamHash) add(format string, args ...any) {
	if h.w != nil {
		fmt.Fprintf(h.w, format+"\n", args...)
	}
}

// warmGen draws uniformly from the pre-rendered zoo pool; with several
// datasets (gateway shards) requests rotate across them.
type warmGen struct {
	rng   *tensor.RNG
	pools [][]*request // [dataset][pool index]
	jobs  []zooJob
	turn  int
	h     streamHash
}

func (g *warmGen) next() *request {
	k := g.rng.Intn(len(g.jobs))
	shard := g.turn % len(g.pools)
	g.turn++
	g.h.add("zoo %d %d %d", shard, g.jobs[k].model, g.jobs[k].n)
	return g.pools[shard][k]
}

// zooPools renders sc.zooPool jobs, once per dataset: whole copies of the
// job list as far as they fit and uniform draws for the rest, so that two
// seeds' pools cost the same to serve (a zoo graph is 25 to 818 nodes).
func (e *env) zooPools(seed int64) ([][]*request, []zooJob) {
	rng := tensor.NewRNG(clientSeed(seed, 0))
	all := e.jobList()
	jobs := make([]zooJob, e.sc.zooPool)
	for i := range jobs {
		if i < len(jobs)/len(all)*len(all) {
			jobs[i] = all[i%len(all)]
		} else {
			jobs[i] = all[rng.Intn(len(all))]
		}
	}
	pools := make([][]*request, len(e.datasets))
	for d, ds := range e.datasets {
		pools[d] = make([]*request, len(jobs))
		for i, j := range jobs {
			pools[d][i] = e.zooRequest(ds, j)
		}
	}
	return pools, jobs
}

// coldGen makes a never-before-seen DARTS-style graph per request.
type coldGen struct {
	e   *env
	rng *tensor.RNG
	h   streamHash
}

func (g *coldGen) next() *request {
	gr := graph.RandomGraph(g.rng, g.e.ds.GraphConfig())
	n := 1 + g.rng.Intn(maxServers)
	if g.h.w != nil {
		g.h.add("custom %s %d", gr.Fingerprint(), n)
	}
	return &request{path: predictPath, body: customBody(g.e.datasets[0], mustSpec(gr), n), want: http.StatusOK, items: []item{{g: gr, n: n}}}
}

// churnPool is batch_churn's fixed set of distinct small graphs, rendered
// up to the num_servers field.
type churnPool struct {
	graphs []*graph.Graph
	prefix [][]byte
	zipf   *zipf
}

func (e *env) newChurnPool(seed int64) *churnPool {
	rng := tensor.NewRNG(clientSeed(seed, 0))
	p := &churnPool{zipf: newZipf(e.sc.churnPool, 1.0)}
	seen := make(map[string]bool, e.sc.churnPool)
	for len(p.graphs) < e.sc.churnPool {
		g := graph.RandomGraphSpec(rng, e.ds.GraphConfig(), small)
		if fp := g.Fingerprint(); !seen[fp] {
			seen[fp] = true
			p.graphs = append(p.graphs, g)
			body := customBody(e.datasets[0], mustSpec(g), 0)
			p.prefix = append(p.prefix, body[:len(body)-2]) // drop "0}"
		}
	}
	return p
}

// churnGen draws churnItems graphs Zipf(1.0) from the pool: hot keys repeat
// inside one batch and across batches, cold ones force evictions.
type churnGen struct {
	pool *churnPool
	rng  *tensor.RNG
	h    streamHash
}

func (g *churnGen) next() *request {
	r := &request{path: batchPath, want: http.StatusOK, batch: true, items: make([]item, churnItems)}
	parts := make([][]byte, churnItems)
	for i := range parts {
		k := g.pool.zipf.rank(g.rng.Float64())
		n := 1 + g.rng.Intn(maxServers)
		g.h.add("churn %d %d", k, n)
		parts[i] = append(strconv.AppendInt(append([]byte(nil), g.pool.prefix[k]...), int64(n), 10), '}')
		r.items[i] = item{g: g.pool.graphs[k], n: n}
	}
	r.body = batchBody(parts)
	return r
}

// zooBatch renders a batch of zoo jobs, item i going to dataset i mod shards.
func (e *env) zooBatch(jobs []zooJob) *request {
	r := &request{path: batchPath, want: http.StatusOK, batch: true, items: make([]item, len(jobs))}
	parts := make([][]byte, len(jobs))
	for i, j := range jobs {
		parts[i] = e.zooBody(e.datasets[i%len(e.datasets)], j)
		r.items[i] = e.zooItem(j)
	}
	r.body = batchBody(parts)
	return r
}

// gatewayGen is 80% single warm-zoo predicts rotating across the shards and
// 20% batches whose items span every shard.
type gatewayGen struct {
	e    *env
	warm warmGen
}

func (g *gatewayGen) next() *request {
	if g.warm.rng.Intn(5) > 0 {
		return g.warm.next()
	}
	jobs := make([]zooJob, gatewayItems)
	for i := range jobs {
		jobs[i] = g.warm.jobs[g.warm.rng.Intn(len(g.warm.jobs))]
		g.warm.h.add("gwbatch %d %d", jobs[i].model, jobs[i].n)
	}
	return g.e.zooBatch(jobs)
}

// generators builds one generator per closed-loop client; client c draws
// from stream firstStream+c of the seed, over pools that depend on the seed
// alone.
func (e *env) generators(workload string, seed int64, firstStream int, hash io.Writer) []generator {
	gens := make([]generator, clients)
	var pools [][]*request
	var jobs []zooJob
	var churn *churnPool
	switch workload {
	case wlWarm, wlGateway:
		pools, jobs = e.zooPools(seed)
	case wlChurn:
		churn = e.newChurnPool(seed)
	}
	for c := range gens {
		rng := tensor.NewRNG(clientSeed(seed, firstStream+c))
		h := streamHash{hash}
		switch workload {
		case wlWarm:
			gens[c] = &warmGen{rng: rng, pools: pools, jobs: jobs, h: h}
		case wlGateway:
			gens[c] = &gatewayGen{e: e, warm: warmGen{rng: rng, pools: pools, jobs: jobs, turn: c, h: h}}
		case wlCold:
			gens[c] = &coldGen{e: e, rng: rng, h: h}
		case wlChurn:
			gens[c] = &churnGen{pool: churn, rng: rng, h: h}
		}
	}
	return gens
}

// openSchedule draws Poisson arrivals at rate for dur and fills them with
// the production blend: zoo 70 / batch 10 / custom 10 (each unique) /
// unknown-dataset 404 5 / over-the-cap 413 5.
func (e *env) openSchedule(seed int64, stream int, rate float64, dur time.Duration, hash io.Writer) []arrival {
	rng := tensor.NewRNG(clientSeed(seed, stream))
	h := streamHash{hash}
	ds := e.datasets[0]
	oversized := []byte(`{"dataset":"` + ds + `","model":"resnet18","num_servers":1,"pad":"` + string(bytes.Repeat([]byte{'x'}, openBodyCap)) + `"}`)
	var sched []arrival
	for _, due := range poissonArrivals(rng, rate, dur) {
		var r *request
		job := func() zooJob { return zooJob{model: rng.Intn(len(e.zoo)), n: 1 + rng.Intn(maxServers)} }
		switch p := rng.Intn(100); {
		case p < 70:
			j := job()
			h.add("zoo %d %d", j.model, j.n)
			r = e.zooRequest(ds, j)
		case p < 80:
			jobs := make([]zooJob, gatewayItems)
			for i := range jobs {
				jobs[i] = job()
				h.add("batch %d %d", jobs[i].model, jobs[i].n)
			}
			r = e.zooBatch(jobs)
		case p < 90:
			r = (&coldGen{e: e, rng: rng, h: h}).next()
		case p < 95:
			j := job()
			h.add("notfound %d %d", j.model, j.n)
			r = &request{path: predictPath, body: e.zooBody("no-such-dataset", j), want: http.StatusNotFound}
		default:
			h.add("oversized %d", len(oversized))
			r = &request{path: predictPath, body: oversized, want: http.StatusRequestEntityTooLarge}
		}
		sched = append(sched, arrival{due: due, req: r})
	}
	return sched
}

// streamSHA is load.stream_sha256: the hash of the first streamPrefix
// requests of every client stream (or open-loop arrivals) the seed produces.
// Generating them twice from the same seed must give the same digest.
func (e *env) streamSHA(workload string, seed int64) string {
	d := sha256.New()
	if workload == wlOpen {
		e.openSchedule(seed, 1, openRate, streamPrefix*time.Second/openRate, d)
	} else {
		for _, g := range e.generators(workload, seed, 1, d) {
			for i := 0; i < streamPrefix; i++ {
				g.next()
			}
		}
	}
	return hex.EncodeToString(d.Sum(nil))
}

// jobList is the full 31 × 20 job list, model-major.
func (e *env) jobList() []zooJob {
	jobs := make([]zooJob, 0, len(e.zoo)*maxServers)
	for m := range e.zoo {
		for n := 1; n <= maxServers; n++ {
			jobs = append(jobs, zooJob{model: m, n: n})
		}
	}
	return jobs
}

// coldPass prices the whole job list once, in order, on one connection,
// through the workload's own entry point, against a server that has served
// nothing yet: Fig. 13's batch time when the predictor is reused rather
// than retrained (pipeline_s on the serving workloads). It also leaves the
// zoo embeddings cached, which is the warm state warm_zoo measures. The
// replies give heldout_mape for the architectures training never saw.
func (e *env) coldPass(workload string) (time.Duration, float64, *runStats) {
	jobs := e.jobList()
	var reqs []*request
	if workload == wlChurn {
		for i := 0; i < len(jobs); i += churnItems {
			reqs = append(reqs, e.zooBatch(jobs[i:min(i+churnItems, len(jobs))]))
		}
	} else {
		for i, j := range jobs {
			reqs = append(reqs, e.zooRequest(e.datasets[i%len(e.datasets)], j))
		}
	}
	cn := newConn()
	defer cn.close()
	st := &clientStats{origin: time.Now()}
	var apeSum float64
	var apeN int
	start := time.Now()
	for _, r := range reqs {
		t0 := time.Now()
		status, reply, err := cn.do(e.target+r.path, r.body, "")
		lat := time.Since(t0)
		st.record(r, t0, lat, lat, status, reply, err, nil, "")
	}
	elapsed := time.Since(start)
	// Every reply was checked bit-equal to the oracle table, so the error
	// against ground truth can be read off the table.
	for _, j := range jobs {
		if e.held[j.model] {
			apeSum += ape(e.expect[j.model][j.n-1], e.truth[j.model][j.n-1])
			apeN++
		}
	}
	return elapsed, apeSum / float64(apeN), merge([]*clientStats{st}, elapsed)
}
