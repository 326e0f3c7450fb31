package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/load"
	"predictddl/internal/obs"
	"predictddl/internal/tensor"
)

// perLayer is what --trace 1 reports, every name on every workload; a layer
// a workload does not reach reads 0 there, which is itself the finding
// (warm_zoo must read ghn.embed_count 0).
var perLayer = []metricDef{
	{"graph.build_us", "us"}, {"graph.fromspec_us", "us"}, {"graph.fingerprint_us", "us"},
	{"graph.build_allocs", "count"}, {"graph.nodes_mean", "count"},
	{"core.decode_us", "us"}, {"core.encode_us", "us"}, {"core.check_us", "us"},
	{"core.embed_stage_us", "us"}, {"core.regress_stage_us", "us"}, {"core.fanout_stage_us", "us"},
	{"core.handler_p50_us", "us"}, {"core.handler_mean_us", "us"},
	{"core.handler_allocs_per_req", "count"}, {"core.handler_bytes_per_req", "B"},
	{"core.unattributed_us", "us"}, {"core.unattributed_frac", "frac"},
	{"core.cache_hits", "count"}, {"core.cache_misses", "count"}, {"core.cache_evictions", "count"},
	{"core.cache_hit_ratio", "frac"}, {"core.dup_embeds", "count"}, {"core.batch_items_per_s", "1/s"},
	{"core.status_2xx", "count"}, {"core.status_4xx", "count"}, {"core.status_5xx", "count"}, {"core.shed_total", "count"},
	{"ghn.embed_us", "us"}, {"ghn.embed_allocs", "count"}, {"ghn.embed_count", "count"}, {"ghn.embed_busy_frac", "frac"},
	{"cluster.features_us", "us"}, {"regress.predict_us", "us"}, {"regress.predict_allocs", "count"},
	{"http.transport_p50_us", "us"},
	{"gateway.route_us", "us"}, {"gateway.hop_p50_us", "us"}, {"gateway.fanout_p50_us", "us"},
	{"gateway.shard_balance", "frac"}, {"gateway.errors", "count"}, {"gateway.shed", "count"}, {"gateway.rebalances", "count"},
	{"ghn.train_s", "s"}, {"ghn.train_s_p1", "s"}, {"ghn.train_scaling_eff", "frac"},
	{"simulator.campaign_s", "s"}, {"simulator.points", "count"}, {"core.embed_all_s", "s"},
	{"regress.fit_s", "s"}, {"core.predict_batch_s", "s"},
	{"offline.pipeline_s", "s"}, {"offline.unattributed_frac", "frac"},
	{"load.untraced_p50_us", "us"}, {"load.traced_p50_us", "us"}, {"load.tracing_overhead_frac", "frac"},
	{"load.generator_lag_p99_us", "us"}, {"load.think_frac", "frac"}, {"load.stream_sha256", "top48bits"},
	{"load.open.r500.p50_us", "us"}, {"load.open.r500.p99_us", "us"},
	{"load.open.r1500.p50_us", "us"}, {"load.open.r1500.p99_us", "us"},
	{"load.open.r4500.p50_us", "us"}, {"load.open.r4500.p99_us", "us"},
	{"load.open.r13500.p50_us", "us"}, {"load.open.r13500.p99_us", "us"},
	{"load.open.knee_rps", "1/s"}, {"load.open.knee_censored", "count"},
}

// ladderRates are the open-loop steps; the ladder stops at the first that
// misses the limit, so the knee is found and not capped (unless all pass).
var ladderRates = []int{500, 1500, 4500, 13500}

// span is one traced interval. Durations are measured; a child's start
// inside its parent is laid out, since the server reports durations only.
type span struct {
	Trace   string  `json:"trace"` // the request's X-Request-ID
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"` // from the tracer's epoch
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"` // duration minus what child spans cover
}

// tracer turns replies carrying a ?trace=1 stage report into spans.
type tracer struct{ epoch time.Time }

// spans appends one request's tree: the client span is the root, under it
// transport (everything outside the handler: loopback, the gateway hop, and
// in an open loop the queue) and handler, under handler its stages; the
// handler's self time is its total minus its stages.
func (t *tracer) spans(dst []span, id, path string, start time.Time, lat time.Duration, tr *obs.TraceReport) []span {
	root := span{Trace: id, Name: "client " + path, StartUS: usOf(float64(start.Sub(t.epoch))), DurUS: usOf(float64(lat))}
	if tr == nil {
		root.SelfUS = root.DurUS
		return append(dst, root)
	}
	handler := span{Trace: id, Name: "handler", Parent: root.Name, DurUS: tr.TotalSeconds * 1e6}
	transport := span{Trace: id, Name: "transport", Parent: root.Name, StartUS: root.StartUS, DurUS: root.DurUS - handler.DurUS}
	transport.SelfUS = transport.DurUS
	handler.StartUS = root.StartUS + transport.DurUS/2
	dst = append(dst, root, transport)
	at := handler.StartUS
	var staged float64
	stages := make([]span, len(tr.Stages))
	for i, s := range tr.Stages {
		stages[i] = span{Trace: id, Name: s.Name, Parent: handler.Name, StartUS: at, DurUS: s.Seconds * 1e6, SelfUS: s.Seconds * 1e6}
		at += stages[i].DurUS
		staged += stages[i].DurUS
	}
	handler.SelfUS = handler.DurUS - staged
	return append(append(dst, handler), stages...)
}

func writeSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// probe times n calls of f in one loop and counts their heap allocations.
func probe(n int, f func(i int)) (meanUS, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return usOf(float64(elapsed)) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// snapshots scrapes every controller (and the gateway last, when there is one).
func (e *env) snapshots() ([]obs.Snapshot, error) {
	urls := e.ctrlURLs
	if e.gw != nil {
		urls = append(append([]string(nil), urls...), e.target)
	}
	out := make([]obs.Snapshot, len(urls))
	for i, u := range urls {
		var err error
		if out[i], err = load.ScrapeMetrics(http.DefaultClient, u); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// delta sums a counter's growth over the controllers' snapshots.
func delta(before, after []obs.Snapshot, name string) float64 {
	var d float64
	for i := range before {
		d += float64(after[i].Counter(name)) - float64(before[i].Counter(name))
	}
	return d
}

// histDelta is a histogram's growth between two snapshots of one server.
func histDelta(before, after obs.Snapshot, name string) obs.HistogramValue {
	a, _ := after.HistogramByName(name)
	b, ok := before.HistogramByName(name)
	if !ok {
		return a
	}
	d := obs.HistogramValue{Name: name, Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Buckets: append([]obs.BucketValue(nil), a.Buckets...)}
	for i := range d.Buckets {
		d.Buckets[i].Count -= b.Buckets[i].Count
	}
	return d
}

// counterLayers turns /v1/metrics deltas over one window into the count and
// ratio rows of the ledger.
func (e *env) counterLayers(m map[string]float64, before, after []obs.Snapshot, cacheLenBefore int, elapsed time.Duration) {
	n := len(e.ctrls)
	hits := delta(before[:n], after[:n], "embed.cache.hits")
	misses := delta(before[:n], after[:n], "embed.cache.misses")
	evictions := delta(before[:n], after[:n], "embed.cache.evictions")
	m["core.cache_hits"], m["core.cache_misses"], m["core.cache_evictions"] = hits, misses, evictions
	if hits+misses > 0 {
		m["core.cache_hit_ratio"] = hits / (hits + misses)
	}
	var embeds, embedBusy, batchItems float64
	for i := 0; i < n; i++ {
		h := histDelta(before[i], after[i], "ghn.embed.seconds")
		embeds += float64(h.Count)
		embedBusy += h.Sum
		batchItems += histDelta(before[i], after[i], "http.batch.size").Sum
		for _, c := range after[i].Counters {
			d := float64(c.Value) - float64(before[i].Counter(c.Name))
			switch {
			case strings.HasPrefix(c.Name, "http.shed."):
				m["core.shed_total"] += d
			case strings.HasPrefix(c.Name, "http.requests."):
				code, _ := strconv.Atoi(c.Name[strings.LastIndexByte(c.Name, '.')+1:])
				m[fmt.Sprintf("core.status_%dxx", code/100)] += d
			}
		}
	}
	m["ghn.embed_count"] = embeds
	m["ghn.embed_busy_frac"] = embedBusy / (elapsed.Seconds() * clients)
	m["core.batch_items_per_s"] = batchItems / elapsed.Seconds()
	// An embed whose result found its key already cached was a duplicate: a
	// racing miss on the same fingerprint. Distinct insertions are the
	// cache's growth plus what it evicted to make room.
	if e.gw == nil {
		engine, err := e.ctrls[0].Engine(e.datasets[0])
		if err == nil {
			inserted := float64(engine.EmbeddingCacheLen()-cacheLenBefore) + evictions
			m["core.dup_embeds"] = embeds - inserted
		}
	} else {
		gb, ga := before[n], after[n]
		var total, least float64
		least = math.Inf(1)
		for _, url := range e.ctrlURLs {
			label := e.gw.ShardLabel(url)
			reqs := float64(ga.Counter("gateway.shard."+label+".requests")) - float64(gb.Counter("gateway.shard."+label+".requests"))
			m["gateway.errors"] += float64(ga.Counter("gateway.shard."+label+".errors")) - float64(gb.Counter("gateway.shard."+label+".errors"))
			total += reqs
			least = math.Min(least, reqs)
		}
		if total > 0 {
			m["gateway.shard_balance"] = least / total
		}
		m["gateway.shed"] = float64(ga.Counter("gateway.shed.total")) - float64(gb.Counter("gateway.shed.total"))
		m["gateway.rebalances"] = float64(ga.Counter("gateway.ring.rebalances")) - float64(gb.Counter("gateway.ring.rebalances"))
		m["gateway.fanout_p50_us"] = histDelta(gb, ga, "gateway.fanout.latency.seconds").Quantile(0.5) * 1e6
	}
}

// replayed is one single-threaded pass of requests straight through a
// handler, no sockets.
type replayed struct {
	lat      []int64            // sorted ns
	meanUS   float64            // handler mean
	stageUS  map[string]float64 // mean per replayed request, by stage name
	allocs   float64            // per request
	bytesPer float64
}

func replay(h http.Handler, reqs []*request, traced bool) replayed {
	httpReqs := make([]*http.Request, len(reqs))
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i, r := range reqs {
		target := r.path
		if traced {
			target += "?trace=1"
		}
		httpReqs[i] = httptest.NewRequest(http.MethodPost, target, bytes.NewReader(r.body))
		recs[i] = httptest.NewRecorder()
	}
	out := replayed{lat: make([]int64, len(reqs)), stageUS: map[string]float64{}}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		t0 := time.Now()
		h.ServeHTTP(recs[i], httpReqs[i])
		out.lat[i] = int64(time.Since(t0))
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(reqs))
	out.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	out.bytesPer = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	out.meanUS = usOf(meanInt64(out.lat))
	for i, r := range reqs {
		if _, tr, _ := r.verify(recs[i].Code, recs[i].Body.Bytes(), false); tr != nil {
			for _, s := range tr.Stages {
				out.stageUS[s.Name] += s.Seconds * 1e6 / n
			}
		}
	}
	out.lat = sortedCopy(out.lat)
	return out
}

// probeSample draws 2n fresh requests of the workload's shape for the
// replays and probes. gateway_routed replays the warm-zoo shape against one
// replica: its controller layers are warm_zoo's, and a batch spanning shards
// has no single owner to replay against.
func (e *env) probeSample(workload string, seed int64, n int) []*request {
	if workload == wlOpen {
		var reqs []*request
		for len(reqs) < 2*n {
			for _, a := range e.openSchedule(seed, 3+len(reqs), openRate, time.Duration(2*n)*time.Second/openRate, nil) {
				reqs = append(reqs, a.req)
			}
		}
		return reqs[:2*n]
	}
	sub := *e
	if workload == wlGateway {
		workload, sub.datasets = wlWarm, e.datasets[:1]
	}
	gen := sub.generators(workload, seed, 1+clients, nil)[0]
	reqs := make([]*request, 2*n)
	for i := range reqs {
		reqs[i] = gen.next()
	}
	return reqs
}

// layerProbes calls each layer's public functions on the sample's items, one
// layer per loop, to price what ?trace=1 cannot split: graph build against
// fingerprint inside check and embed, and the cost of an embed miss.
func (e *env) layerProbes(m map[string]float64, reqs []*request) error {
	var ok []*request
	for _, r := range reqs {
		if r.want == http.StatusOK {
			ok = append(ok, r)
		}
	}
	decoded := make([][]core.PredictRequest, len(ok))
	var failed error // the first error any probe met
	keep := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	m["core.decode_us"], _ = probe(len(ok), func(i int) {
		if ok[i].batch {
			var br core.BatchRequest
			keep(json.NewDecoder(bytes.NewReader(ok[i].body)).Decode(&br))
			decoded[i] = br.Requests
		} else {
			var pr core.PredictRequest
			keep(json.NewDecoder(bytes.NewReader(ok[i].body)).Decode(&pr))
			decoded[i] = []core.PredictRequest{pr}
		}
	})
	if failed != nil {
		return fmt.Errorf("decode probe: %w", failed)
	}
	m["core.encode_us"], _ = probe(len(ok), func(i int) {
		var v any = core.PredictResponse{Dataset: e.ds.Name, Model: "resnet18", NumServers: 8, PredictedSeconds: 1234.5678, Regressor: e.model.Name()}
		if ok[i].batch {
			v = core.BatchResponse{Results: make([]core.BatchItem, len(decoded[i]))}
		}
		_ = json.NewEncoder(io.Discard).Encode(v) // io.Discard cannot fail and the value is plain data
	})

	var zoo, custom []core.PredictRequest
	for _, items := range decoded {
		for _, it := range items {
			if len(zoo)+len(custom) == e.sc.replay {
				break
			}
			if it.Graph != nil {
				custom = append(custom, it)
			} else {
				zoo = append(zoo, it)
			}
		}
	}
	graphs := make([]*graph.Graph, len(zoo)+len(custom))
	m["graph.build_us"], m["graph.build_allocs"] = probe(len(zoo), func(i int) {
		g, err := graph.Build(zoo[i].Model, graph.Config{})
		graphs[i] = g
		keep(err)
	})
	m["graph.fromspec_us"], _ = probe(len(custom), func(i int) {
		g, err := graph.FromSpec(custom[i].Graph)
		graphs[len(zoo)+i] = g
		keep(err)
	})
	if failed != nil {
		return fmt.Errorf("graph probe: %w", failed)
	}
	fps := make([]string, len(graphs))
	m["graph.fingerprint_us"], _ = probe(len(graphs), func(i int) { fps[i] = graphs[i].Fingerprint() })
	var nodes float64
	for _, g := range graphs {
		nodes += float64(g.NumNodes()) / float64(len(graphs))
	}
	m["graph.nodes_mean"] = nodes

	feats := make([][]float64, len(graphs))
	all := append(append([]core.PredictRequest(nil), zoo...), custom...)
	m["cluster.features_us"], _ = probe(len(graphs), func(i int) {
		feats[i] = cluster.Homogeneous(all[i].NumServers, e.spec).Features()
	})
	// An embed miss is priced on a few distinct graphs only: a zoo embed
	// runs to tens of milliseconds.
	var distinct []int
	seen := map[string]bool{}
	for i, fp := range fps {
		if !seen[fp] && len(distinct) < 64 {
			seen[fp] = true
			distinct = append(distinct, i)
		}
	}
	embs := make([][]float64, len(distinct))
	m["ghn.embed_us"], m["ghn.embed_allocs"] = probe(len(distinct), func(k int) {
		emb, err := e.clone.EmbedKeyed(graphs[distinct[k]], fps[distinct[k]], ghn.Float64)
		embs[k] = emb
		keep(err)
	})
	if failed != nil {
		return fmt.Errorf("embed probe: %w", failed)
	}
	rows := make([][]float64, len(distinct))
	for k, i := range distinct {
		rows[k] = tensor.Concat(embs[k], feats[i])
	}
	m["regress.predict_us"], m["regress.predict_allocs"] = probe(len(rows), func(k int) {
		_, err := e.model.Predict(rows[k])
		keep(err)
	})
	if failed != nil {
		return fmt.Errorf("regress probe: %w", failed)
	}
	return nil
}

// ledger reconciles the in-process handler time with its layers. singles is
// the share of replayed requests that are one successful predict: the only
// ones whose cluster feature row is built outside every stage.
func ledger(m map[string]float64, plain, traced replayed, singles float64) {
	m["core.handler_p50_us"] = usOf(float64(percentile(plain.lat, 0.5)))
	m["core.handler_mean_us"] = traced.meanUS
	m["core.handler_allocs_per_req"] = plain.allocs
	m["core.handler_bytes_per_req"] = plain.bytesPer
	m["core.check_us"] = traced.stageUS["check"]
	m["core.embed_stage_us"] = traced.stageUS["embed"]
	m["core.regress_stage_us"] = traced.stageUS["regress"]
	m["core.fanout_stage_us"] = traced.stageUS["fanout"]
	// decode comes from the same traced requests; encode and the cluster
	// feature row have no stage of their own, so their probes stand in.
	layers := traced.stageUS["decode"] + traced.stageUS["check"] + traced.stageUS["embed"] +
		traced.stageUS["regress"] + traced.stageUS["fanout"] + m["core.encode_us"] + singles*m["cluster.features_us"]
	m["core.unattributed_us"] = traced.meanUS - layers
	m["core.unattributed_frac"] = m["core.unattributed_us"] / traced.meanUS
}

func printLedger(workload string, m map[string]float64, decodeStageUS float64) {
	total := m["core.handler_mean_us"]
	row := func(name string, us float64) { // a layer of the handler's time, per request
		fmt.Printf("  %-44s %10.2f us %6.1f%%\n", name, us, 100*us/total)
	}
	unit := func(name string, us float64) { // what one call costs, however many a request makes
		fmt.Printf("  %-44s %10.2f us\n", name, us)
	}
	fmt.Printf("ledger %s: mean per request, replayed single-threaded through Handler().ServeHTTP\n", workload)
	row("handler", total)
	row("  decode [trace]", decodeStageUS)
	row("  check [trace]", m["core.check_us"])
	unit("    graph.Build, per zoo item [probe]", m["graph.build_us"])
	unit("    graph.FromSpec, per custom item [probe]", m["graph.fromspec_us"])
	row("  embed [trace]", m["core.embed_stage_us"])
	unit("    Graph.Fingerprint, per item [probe]", m["graph.fingerprint_us"])
	unit("    GHN.EmbedKeyed, per miss [probe]", m["ghn.embed_us"])
	row("  regress [trace]", m["core.regress_stage_us"])
	row("  fanout [trace]", m["core.fanout_stage_us"])
	row("  encode [probe]", m["core.encode_us"])
	unit("  cluster features, per item [probe]", m["cluster.features_us"])
	row("  unattributed (middleware + glue)", m["core.unattributed_us"])
	unit("transport (loopback p50 - handler p50)", m["http.transport_p50_us"])
	fmt.Printf("  %-44s %10.4f\n", "tracing overhead (traced p50 / untraced - 1)", m["load.tracing_overhead_frac"])
}

// ladder steps the open-loop rate up until a step misses the limit for more
// than 1% of what it sent or cannot keep up with its schedule.
func (e *env) ladder(o *outcome, seed int64, step time.Duration) {
	knee, censored := 0, 1.0
	for k, rate := range ladderRates {
		sched := e.openSchedule(seed, 10+k, float64(rate), e.sc.warmup/4+step, nil)
		r := runOpen(e.targets(), sched, e.sc.warmup/4, nil)
		e.checkHeld(r)
		o.count(r)
		o.metrics[fmt.Sprintf("load.open.r%d.p50_us", rate)] = usOf(float64(percentile(r.lat, 0.5)))
		o.metrics[fmt.Sprintf("load.open.r%d.p99_us", rate)] = usOf(float64(percentile(r.lat, 0.99)))
		missed := 1 - r.onTimeFrac()
		fmt.Printf("ladder %6d rps: sent %d p50 %.0f us p99 %.0f us missed %.4f backlog %d\n",
			rate, r.sent, usOf(float64(percentile(r.lat, 0.5))), usOf(float64(percentile(r.lat, 0.99))), missed, r.backlog)
		if missed > 0.01 || float64(r.backlog) > 0.01*float64(r.sent) {
			censored = 0
			break
		}
		knee = rate
	}
	o.metrics["load.open.knee_rps"] = float64(knee)
	o.metrics["load.open.knee_censored"] = censored
}

// gatewayLayers prices the route decision and the hop: the same single
// predicts through the gateway and straight to the replica that owns them.
func (e *env) gatewayLayers(o *outcome, seed int64, window time.Duration) {
	o.metrics["gateway.route_us"], _ = probe(4096, func(i int) { e.gw.Ring().Owner(e.datasets[i%len(e.datasets)]) })
	singles := func() []generator {
		gens := make([]generator, clients)
		for c := range gens {
			sub := *e
			sub.datasets = e.datasets[c%len(e.datasets):][:1]
			gens[c] = sub.generators(wlWarm, seed, 1+2*clients, nil)[c]
		}
		return gens
	}
	direct := make([]string, clients)
	for c := range direct {
		direct[c] = e.ctrlURLs[c%len(e.ctrlURLs)]
	}
	via := runClosed(e.targets(), singles(), window, nil)
	straight := runClosed(direct, singles(), window, nil)
	o.count(via)
	o.count(straight)
	o.metrics["gateway.hop_p50_us"] = usOf(float64(percentile(via.lat, 0.5) - percentile(straight.lat, 0.5)))
}

// streamSHA records the digest of the generated inputs: in full as a note,
// and its first 48 bits, which a float64 holds exactly, as the metric.
func (o *outcome) streamSHA(sha string) {
	head, _ := strconv.ParseUint(sha[:12], 16, 64) // hex by construction
	o.metrics["load.stream_sha256"] = float64(head)
	o.notes["stream_sha256"] = sha
}

// runTraced produces the per-layer metrics of one workload: an untraced and
// a traced window (their difference is the tracing overhead), /v1/metrics
// deltas, a single-threaded replay through the handler, and probes of each
// layer's public functions. Spans go to tracePath at exit.
func runTraced(ctx context.Context, sc scale, workload string, seed int64, window time.Duration, tracePath string) (*outcome, error) {
	o := newOutcome()
	for _, d := range perLayer {
		o.metrics[d.name] = 0
	}
	short := window * 3 / 10
	tr := &tracer{epoch: time.Now()}
	if workload == wlOffline {
		spans, err := traceOffline(sc, seed, o, tr)
		if err != nil {
			return nil, err
		}
		return o, writeSpans(tracePath, spans)
	}

	e, err := setUp(ctx, sc, workload)
	if err != nil {
		return nil, err
	}
	defer e.close()
	o.streamSHA(e.streamSHA(workload, seed))

	_, _, cold := e.coldPass(workload)
	o.count(cold)
	ld := e.newLoad(workload, seed, short)
	tracedLoad := ld
	if workload == wlOpen {
		tracedLoad = traffic{sched: e.openSchedule(seed, 2, openRate, sc.warmup+short, nil)}
	} else if err := e.warmUp(workload, ld.gens); err != nil {
		return nil, err
	}

	before, err := e.snapshots()
	if err != nil {
		return nil, err
	}
	cacheLen := 0
	if engine, err := e.ctrls[0].Engine(e.datasets[0]); err == nil {
		cacheLen = engine.EmbeddingCacheLen()
	}
	plainRun := e.measure(workload, ld, short, nil)
	after, err := e.snapshots()
	if err != nil {
		return nil, err
	}
	e.counterLayers(o.metrics, before, after, cacheLen, plainRun.elapsed)
	tracedRun := e.measure(workload, tracedLoad, short, tr)
	o.count(plainRun)
	o.count(tracedRun)
	p50, p50Traced := float64(percentile(plainRun.lat, 0.5)), float64(percentile(tracedRun.lat, 0.5))
	o.metrics["load.untraced_p50_us"], o.metrics["load.traced_p50_us"] = usOf(p50), usOf(p50Traced)
	o.metrics["load.tracing_overhead_frac"] = p50Traced/p50 - 1
	o.metrics["load.think_frac"] = 1 - plainRun.busy.Seconds()/plainRun.wall.Seconds()
	if workload == wlOpen {
		o.metrics["load.generator_lag_p99_us"] = usOf(float64(percentile(plainRun.lag, 0.99)))
		o.metrics["load.think_frac"] = 0 // an open loop does not think: it waits for due times
	}
	o.notes["latency_samples"] = len(plainRun.lat)
	o.notes["traced_samples"] = len(tracedRun.lat)

	sample := e.probeSample(workload, seed, sc.replay)
	handler := e.ctrls[0].Handler()
	plain := replay(handler, sample[:sc.replay], false)
	traced := replay(handler, sample[sc.replay:], true)
	if err := e.layerProbes(o.metrics, sample[sc.replay:]); err != nil {
		return nil, err
	}
	var singles float64
	for _, r := range sample[sc.replay:] {
		if r.want == http.StatusOK && !r.batch {
			singles += 1 / float64(sc.replay)
		}
	}
	ledger(o.metrics, plain, traced, singles)
	o.metrics["http.transport_p50_us"] = usOf(p50) - o.metrics["core.handler_p50_us"]
	if workload == wlGateway {
		e.gatewayLayers(o, seed, short/2)
	}
	if workload == wlOpen {
		e.ladder(o, seed, short)
	}
	printLedger(workload, o.metrics, traced.stageUS["decode"])
	return o, writeSpans(tracePath, tracedRun.spans)
}

// traceOffline times the public calls TrainEngine makes, one by one, and
// sets their sum against the end-to-end repetition.
func traceOffline(sc scale, seed int64, o *outcome, tr *tracer) ([]span, error) {
	e := newEnv(sc)
	in, err := newOfflineJobs(e, seed)
	if err != nil {
		return nil, err
	}
	var whole []float64
	var ref *fit
	for rep := 0; rep < 2; rep++ {
		if ref, err = fitOnce(e, in); err != nil {
			return nil, err
		}
		whole = append(whole, ref.total.Seconds())
	}
	pipeline := median(whole)

	var spans []span
	at := time.Now()
	timed := func(name string, f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		spans = append(spans, span{Trace: "offline", Name: name, Parent: "pipeline",
			StartUS: usOf(float64(t0.Sub(tr.epoch))), DurUS: usOf(float64(d)), SelfUS: usOf(float64(d))})
		return d.Seconds(), err
	}
	layers, err := decomposedFit(e, in, timed, o.metrics)
	if err != nil {
		return nil, err
	}
	total := time.Since(at)
	spans = append(spans, span{Trace: "offline", Name: "pipeline", StartUS: usOf(float64(at.Sub(tr.epoch))),
		DurUS: usOf(float64(total)), SelfUS: usOf(float64(total)) - layers.sumS*1e6})

	o.attempted = len(ref.preds)
	for i, p := range layers.preds {
		if p.Err != nil || math.Float64bits(p.Seconds) != math.Float64bits(ref.preds[i].Seconds) {
			o.failures["layers_differ_from_train_engine"]++
			o.failed++
		}
	}
	o.metrics["offline.pipeline_s"] = pipeline
	o.metrics["offline.unattributed_frac"] = (pipeline - layers.sumS) / pipeline
	o.streamSHA(in.sha)

	// Serial GHN training, outside the pipeline: how much the cores bought.
	p1, err := timed("ghn.Train parallelism 1", func() error {
		_, _, err := ghn.Train(ghn.Config{}, offlineTrainConfig(e, 1))
		return err
	})
	if err != nil {
		return nil, err
	}
	o.metrics["ghn.train_s_p1"] = p1
	o.metrics["ghn.train_scaling_eff"] = p1 / (o.metrics["ghn.train_s"] * float64(runtime.GOMAXPROCS(0)))
	fmt.Printf("ledger offline_fit: pipeline %.3f s, layers sum %.3f s, unattributed %.1f%%\n",
		pipeline, layers.sumS, 100*o.metrics["offline.unattributed_frac"])
	return spans, nil
}
