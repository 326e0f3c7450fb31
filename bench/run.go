package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/load"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// outcome is one run's result before it is rendered.
type outcome struct {
	attempted, failed int
	failures          map[string]int // violations by kind
	metrics           map[string]float64
	notes             map[string]any // printed and recorded, not metrics
}

func newOutcome() *outcome {
	return &outcome{failures: map[string]int{}, metrics: map[string]float64{}, notes: map[string]any{}}
}

func (o *outcome) count(r *runStats) {
	o.attempted += r.sent
	o.failed += r.failed()
	for k, n := range r.failures {
		o.failures[k] += n
	}
}

func ape(predBits uint64, truth float64) float64 {
	return math.Abs(math.Float64frombits(predBits)-truth) / truth
}

// liveHeapMB is HeapAlloc after a forced collection: what the process keeps
// alive (caches, pools, scratch arenas), harness included.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle drops what sync.Pool kept through the first
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// traffic is what a workload sends after set-up: closed-loop generators, or an
// open-loop schedule.
type traffic struct {
	gens  []generator
	sched []arrival
}

func (e *env) newLoad(workload string, seed int64, window time.Duration) traffic {
	if workload == wlOpen {
		return traffic{sched: e.openSchedule(seed, 1, openRate, e.sc.warmup+window, nil)}
	}
	return traffic{gens: e.generators(workload, seed, 1, nil)}
}

// setUpTimed runs sc.setups full set-ups, each followed by a cold pass over
// the job list, and keeps the last one serving. Request pools are part of
// set-up.
func setUpTimed(ctx context.Context, sc scale, workload string, seed int64, window time.Duration, o *outcome) (*env, traffic, error) {
	var setupS, pipelineS []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		e, err := setUp(ctx, sc, workload)
		if err != nil {
			return nil, traffic{}, err
		}
		ld := e.newLoad(workload, seed, window)
		setupS = append(setupS, time.Since(t0).Seconds())

		cold, mape, st := e.coldPass(workload)
		pipelineS = append(pipelineS, cold.Seconds())
		o.count(st)
		if i == sc.setups-1 {
			o.metrics["setup_s"] = median(setupS)
			o.metrics["pipeline_s"] = median(pipelineS)
			o.metrics["heldout_mape"] = mape
			return e, ld, nil
		}
		if err := e.close(); err != nil {
			return nil, traffic{}, err
		}
	}
}

// warmUp brings a closed-loop workload to its steady state. batch_churn is
// steady only once the embedding cache is full and evicting.
func (e *env) warmUp(workload string, gens []generator) error {
	runClosed(e.targets(), gens, e.sc.warmup, nil)
	if workload != wlChurn {
		return nil
	}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); {
		snap, err := load.ScrapeMetrics(http.DefaultClient, e.ctrlURLs[0])
		if err != nil {
			return err
		}
		if snap.Counter("embed.cache.evictions") > 0 {
			return nil
		}
		runClosed(e.targets(), gens, e.sc.warmup/4, nil)
	}
	return fmt.Errorf("batch_churn: no cache eviction after 60 s of warm-up")
}

// measure runs the timed window of a serving workload.
func (e *env) measure(workload string, ld traffic, window time.Duration, tr *tracer) *runStats {
	var r *runStats
	if workload == wlOpen {
		r = runOpen(e.targets(), ld.sched, e.sc.warmup, tr)
	} else {
		r = runClosed(e.targets(), ld.gens, window, tr)
	}
	e.checkHeld(r)
	return r
}

// latencyMetrics fills the timing metrics every serving window reports.
func (o *outcome) latencyMetrics(r *runStats) {
	rps, p50, p99, sloOK := r.sliced()
	o.metrics["throughput_rps"], o.metrics["latency_p50_us"], o.metrics["latency_p99_us"] = rps, usOf(p50), usOf(p99)
	o.metrics["slo_ok_frac"] = sloOK
	o.notes["whole_window_slo_ok_frac"] = r.onTimeFrac()
	o.notes["whole_window_rps"] = float64(r.correct) / r.elapsed.Seconds()
	o.notes["whole_window_p50_us"] = usOf(float64(percentile(r.lat, 0.50)))
	o.notes["whole_window_p99_us"] = usOf(float64(percentile(r.lat, 0.99)))
	o.notes["latency_samples"] = len(r.lat)
	o.notes["window_s"] = r.elapsed.Seconds()
}

// runServing measures the end-to-end metrics of one serving workload,
// tracing off.
func runServing(ctx context.Context, sc scale, workload string, seed int64, window time.Duration) (*outcome, error) {
	o := newOutcome()
	e, ld, err := setUpTimed(ctx, sc, workload, seed, window, o)
	if err != nil {
		return nil, err
	}
	defer e.close()
	if workload != wlOpen {
		if err := e.warmUp(workload, ld.gens); err != nil {
			return nil, err
		}
	}
	r := e.measure(workload, ld, window, nil)
	o.count(r)
	o.latencyMetrics(r)
	o.metrics["correct_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.metrics["live_heap_mb"] = liveHeapMB()
	if workload == wlOpen {
		o.notes["generator_lag_p99_us"] = usOf(float64(percentile(r.lag, 0.99)))
		o.notes["backlog_at_end"] = r.backlog
	}
	return o, e.close()
}

// offlineJobs is offline_fit's input: the job list in a seed-drawn order.
type offlineJobs struct {
	jobs     []zooJob
	graphs   []*graph.Graph
	clusters []cluster.Cluster
	truth    [][]float64
	held     []bool
	train    []string
	sha      string // load.stream_sha256 of the job order
}

func newOfflineJobs(e *env, seed int64) (*offlineJobs, error) {
	var err error
	if e.graphs, e.truth, err = zooTables(e.ds, e.spec, e.zoo); err != nil {
		return nil, err
	}
	in := &offlineJobs{jobs: e.jobList(), truth: e.truth}
	in.held, in.train = heldOut(e.zoo)
	tensor.NewRNG(clientSeed(seed, 0)).Shuffle(len(in.jobs), func(i, j int) { in.jobs[i], in.jobs[j] = in.jobs[j], in.jobs[i] })
	d := sha256.New()
	for _, j := range in.jobs {
		in.graphs = append(in.graphs, e.graphs[j.model])
		in.clusters = append(in.clusters, cluster.Homogeneous(j.n, e.spec))
		streamHash{d}.add("job %d %d", j.model, j.n)
	}
	in.sha = hex.EncodeToString(d.Sum(nil))
	return in, nil
}

// fit is one repetition's products and timings.
type fit struct {
	res   *core.TrainResult
	preds []core.BatchPrediction
	total time.Duration
}

func offlineTrainConfig(e *env, parallelism int) ghn.TrainConfig {
	return ghn.TrainConfig{
		Graphs: e.sc.offGraphs, Epochs: e.sc.offEpochs, BatchSize: ghnBatch,
		Parallelism: parallelism, Seed: trainSeed, GraphConfig: e.ds.GraphConfig(),
	}
}

func offlineCampaign(e *env, in *offlineJobs) simulator.CampaignSpec {
	return simulator.CampaignSpec{Models: in.train, Dataset: e.ds, ServerSpec: e.spec, ServerCounts: simulator.CountRange(1, maxServers)}
}

// fitOnce is one repetition of the paper's Fig. 13 pipeline: train the GHN,
// collect the campaign without the held-out architectures, fit, then price
// the whole job list cold.
func fitOnce(e *env, in *offlineJobs) (*fit, error) {
	t0 := time.Now()
	res, err := core.TrainEngine(core.TrainOptions{
		Dataset:     e.ds,
		GHNTraining: offlineTrainConfig(e, 0), // 0: every core
		Campaign:    offlineCampaign(e, in),
		Simulator:   simulator.New(trainSeed, simulator.Options{}),
	})
	if err != nil {
		return nil, fmt.Errorf("offline_fit: %w", err)
	}
	preds, err := res.Engine.PredictBatch(in.graphs, in.clusters)
	if err != nil {
		return nil, fmt.Errorf("offline_fit: %w", err)
	}
	return &fit{res: res, preds: preds, total: time.Since(t0)}, nil
}

// runOffline measures offline_fit. Every repetition does identical seeded
// work, so its predictions must repeat to the bit; the first repetition is
// also checked against the one-at-a-time library path.
func runOffline(sc scale, seed int64, window time.Duration) (*outcome, error) {
	o := newOutcome()
	e := newEnv(sc) // library only: no servers
	var in *offlineJobs
	var setupS []float64
	for i := 0; i < sc.setups; i++ {
		t0 := time.Now()
		var err error
		if in, err = newOfflineJobs(e, seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	o.metrics["setup_s"] = median(setupS)

	var last *fit
	var first []uint64 // repetition 0's prediction bits, by job position
	var lat []int64
	var total time.Duration
	correct, onTime := 0, 0
	for rep := 0; rep < sc.minReps || total < window; rep++ {
		f, err := fitOnce(e, in)
		if err != nil {
			return nil, err
		}
		last = f
		took, preds := f.total, f.preds
		lat = append(lat, int64(took))
		total += took
		good := 0
		for i, p := range preds {
			bits := math.Float64bits(p.Seconds)
			switch {
			case p.Err != nil || !(p.Seconds > 0) || math.IsInf(p.Seconds, 0):
				o.failures["not_positive"]++
				continue
			case rep > 0 && bits != first[i]:
				o.failures["differs_from_first_repetition"]++
				continue
			case rep == 0:
				if one, err := f.res.Engine.Predict(in.graphs[i], in.clusters[i]); err != nil || math.Float64bits(one) != bits {
					o.failures["batch_differs_from_single"]++
					continue
				}
				first = append(first, bits)
			}
			good++
		}
		if rep == 0 && good != len(preds) {
			return nil, fmt.Errorf("offline_fit: first repetition had %d bad predictions: %v", len(preds)-good, o.failures)
		}
		o.attempted += len(preds)
		correct += good
		if took <= pipelineLimit {
			onTime += good
		}
	}
	o.failed = o.attempted - correct

	var apeSum float64
	var apeN int
	for i, j := range in.jobs {
		if in.held[j.model] {
			apeSum += ape(first[i], in.truth[j.model][j.n-1])
			apeN++
		}
	}
	sorted := sortedCopy(lat)
	o.metrics["throughput_rps"] = float64(correct) / total.Seconds()
	o.metrics["latency_p50_us"] = usOf(float64(percentile(sorted, 0.50)))
	o.metrics["latency_p99_us"] = usOf(float64(percentile(sorted, 0.99)))
	o.metrics["slo_ok_frac"] = float64(onTime) / float64(o.attempted)
	o.metrics["correct_frac"] = float64(correct) / float64(o.attempted)
	o.metrics["pipeline_s"] = float64(percentile(sorted, 0.50)) / 1e9
	o.metrics["heldout_mape"] = apeSum / float64(apeN)
	o.metrics["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last) // the heap that counts holds a trained predictor and its caches
	o.notes["latency_samples"] = len(lat)
	o.notes["window_s"] = total.Seconds()
	return o, nil
}

// layerFit is what the layer-by-layer repetition produced.
type layerFit struct {
	sumS  float64 // seconds inside the timed public calls
	preds []core.BatchPrediction
}

// decomposedFit repeats fitOnce through the public calls TrainEngine makes,
// each timed on its own, and files the times under their module's name.
func decomposedFit(e *env, in *offlineJobs, timed func(string, func() error) (float64, error), m map[string]float64) (*layerFit, error) {
	out := &layerFit{}
	var g *ghn.GHN
	var points []simulator.DataPoint
	var x *tensor.Matrix
	var y []float64
	var embeddings map[string][]float64
	model := regress.NewLogTarget(regress.NewLinearRegression())
	var engine *core.InferenceEngine
	steps := []struct {
		metric, call string
		f            func() error
	}{
		{"ghn.train_s", "ghn.Train", func() (err error) {
			g, _, err = ghn.Train(ghn.Config{}, offlineTrainConfig(e, 0))
			return err
		}},
		{"simulator.campaign_s", "Simulator.RunCampaign", func() (err error) {
			points, err = simulator.New(trainSeed, simulator.Options{}).RunCampaign(offlineCampaign(e, in))
			return err
		}},
		{"core.embed_all_s", "core.DesignMatrixWithEmbeddings", func() (err error) {
			x, y, embeddings, err = core.DesignMatrixWithEmbeddings(g, points, e.ds.GraphConfig())
			return err
		}},
		{"regress.fit_s", "Regressor.Fit", func() error { return model.Fit(x, y) }},
		{"core.predict_batch_s", "InferenceEngine.PredictBatch", func() (err error) {
			engine = core.NewInferenceEngine(e.ds.Name, g, model)
			engine.SetReference(embeddings)
			out.preds, err = engine.PredictBatch(in.graphs, in.clusters)
			return err
		}},
	}
	for _, s := range steps {
		secs, err := timed(s.call, s.f)
		if err != nil {
			return nil, fmt.Errorf("offline_fit %s: %w", s.call, err)
		}
		m[s.metric] = secs
		out.sumS += secs
	}
	m["simulator.points"] = float64(len(points))
	return out, nil
}
