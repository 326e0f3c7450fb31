package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"time"

	"predictddl/internal/cluster"
	"predictddl/internal/core"
	"predictddl/internal/dataset"
	"predictddl/internal/gateway"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
)

// scale holds every size the benchmark uses. fullScale is what BENCHMARK.json
// measures; smokeScale shrinks the work so `go test -short` can drive every
// workload in well under a second each.
type scale struct {
	ghnGraphs, ghnEpochs int // serving predictor's GHN
	offGraphs, offEpochs int // offline_fit's GHN
	zooPool              int // pre-rendered warm-zoo bodies
	churnPool            int // distinct small custom graphs in batch_churn
	churnCache           int // embedding-cache size forced on batch_churn; 0 keeps the default
	setups               int // set-ups per run; setup_s and pipeline_s are their medians
	minReps              int // offline_fit repetitions at least
	replay               int // requests in the single-threaded probe replay
	warmup               time.Duration
}

var fullScale = scale{
	ghnGraphs: 64, ghnEpochs: 6,
	offGraphs: 128, offEpochs: 4,
	zooPool:   4096,
	churnPool: 8192, // 2× the 4096-entry embedding cache, 64× the GHN topology cache
	setups:    3,
	minReps:   5,
	replay:    512,
	warmup:    time.Second,
}

var smokeScale = scale{
	ghnGraphs: 8, ghnEpochs: 1,
	offGraphs: 8, offEpochs: 1,
	zooPool:   64,
	churnPool: 96, churnCache: 48,
	setups:  1,
	minReps: 2,
	replay:  16,
	warmup:  20 * time.Millisecond,
}

const (
	// trainSeed fixes the predictor under test: --seed varies only the
	// request streams, so every run measures the same program and
	// heldout_mape repeats to the bit.
	trainSeed  = 1
	ghnBatch   = 8
	maxServers = 20
	// heldOutEvery holds out zoo[i] with i%5 == 1 (6 of 31 architectures,
	// one or two per family): the predictor never sees them in training and
	// serves them by name, the paper's "new DNN without retraining".
	heldOutEvery, heldOutPhase = 5, 1
	openBodyCap                = 64 << 10 // open_mixed's admission cap, so 413s are cheap to provoke
)

// env is one set-up: a trained predictor behind live loopback servers, plus
// the library-path oracle the responses are checked against.
type env struct {
	sc    scale
	ds    dataset.Dataset
	spec  cluster.ServerSpec
	zoo   []string
	held  []bool // by zoo index
	ghn   *ghn.GHN
	model regress.Regressor
	// oracle is the library path (Predictor.PredictGraph) on a clone of the
	// trained GHN, so checking a response never warms the caches under test.
	oracle *core.InferenceEngine
	clone  *ghn.GHN
	graphs []*graph.Graph // zoo graphs, by zoo index
	truth  [][]float64    // simulator seconds [zoo index][servers-1]
	expect [][]uint64     // oracle prediction bits [zoo index][servers-1]

	ctrls    []*core.Controller
	ctrlURLs []string
	gw       *gateway.Gateway
	target   string   // where the workload sends: the controller, or the gateway
	datasets []string // dataset name served by ctrls[i]
	stops    []func() error
}

// newEnv fixes what every workload shares: cifar10-shaped inputs on the GPU
// class, the full zoo.
func newEnv(sc scale) *env {
	return &env{sc: sc, ds: dataset.CIFAR10(), spec: cluster.SpecGPUP100(), zoo: graph.Zoo()}
}

func heldOut(zoo []string) (held []bool, train []string) {
	held = make([]bool, len(zoo))
	for i, m := range zoo {
		if i%heldOutEvery == heldOutPhase {
			held[i] = true
		} else {
			train = append(train, m)
		}
	}
	return held, train
}

// trainPredictor runs the public offline path with the GHN and regressor
// passed in, so the harness keeps both pointers for its probes and oracle.
func trainPredictor(sc scale, ds dataset.Dataset, spec cluster.ServerSpec, train []string) (*ghn.GHN, regress.Regressor, *core.InferenceEngine, error) {
	g, _, err := ghn.Train(ghn.Config{}, ghn.TrainConfig{
		Graphs: sc.ghnGraphs, Epochs: sc.ghnEpochs, BatchSize: ghnBatch,
		Seed: trainSeed, GraphConfig: ds.GraphConfig(),
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("train GHN: %w", err)
	}
	model := regress.NewLogTarget(regress.NewLinearRegression())
	res, err := core.TrainEngine(core.TrainOptions{
		Dataset:   ds,
		GHN:       g,
		Campaign:  simulator.CampaignSpec{Models: train, Dataset: ds, ServerSpec: spec, ServerCounts: simulator.CountRange(1, maxServers)},
		Regressor: model,
		Simulator: simulator.New(trainSeed, simulator.Options{}),
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("train engine: %w", err)
	}
	return g, model, res.Engine, nil
}

// zooTables builds the zoo graphs and the simulator's ground truth for the
// full 31 × 20 job list.
func zooTables(ds dataset.Dataset, spec cluster.ServerSpec, zoo []string) ([]*graph.Graph, [][]float64, error) {
	points, err := simulator.New(trainSeed, simulator.Options{}).RunCampaign(simulator.CampaignSpec{
		Models: zoo, Dataset: ds, ServerSpec: spec, ServerCounts: simulator.CountRange(1, maxServers),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("truth campaign: %w", err)
	}
	index := make(map[string]int, len(zoo))
	graphs := make([]*graph.Graph, len(zoo))
	truth := make([][]float64, len(zoo))
	for i, m := range zoo {
		index[m] = i
		truth[i] = make([]float64, maxServers)
		if graphs[i], err = graph.Build(m, ds.GraphConfig()); err != nil {
			return nil, nil, fmt.Errorf("build %s: %w", m, err)
		}
	}
	for _, p := range points {
		truth[index[p.Model]][p.NumServers-1] = p.Seconds
	}
	return graphs, truth, nil
}

// setUp trains the predictor and stands the serving topology up: one
// controller, or for gateway_routed two replicas behind a gateway.
func setUp(ctx context.Context, sc scale, workload string) (_ *env, err error) {
	e := newEnv(sc)
	defer func() {
		if err != nil {
			_ = e.close()
		}
	}()
	var train []string
	e.held, train = heldOut(e.zoo)
	var engine *core.InferenceEngine
	if e.ghn, e.model, engine, err = trainPredictor(sc, e.ds, e.spec, train); err != nil {
		return nil, err
	}
	if e.graphs, e.truth, err = zooTables(e.ds, e.spec, e.zoo); err != nil {
		return nil, err
	}

	var weights bytes.Buffer
	if err := e.ghn.Save(&weights); err != nil {
		return nil, fmt.Errorf("clone GHN: %w", err)
	}
	if e.clone, err = ghn.Load(&weights); err != nil {
		return nil, fmt.Errorf("clone GHN: %w", err)
	}
	e.oracle = core.NewInferenceEngine(e.ds.Name, e.clone, e.model)
	e.expect = make([][]uint64, len(e.zoo))
	for i, g := range e.graphs {
		e.expect[i] = make([]uint64, maxServers)
		for n := 1; n <= maxServers; n++ {
			secs, err := e.oracle.Predict(g, cluster.Homogeneous(n, e.spec))
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", e.zoo[i], err)
			}
			e.expect[i][n-1] = math.Float64bits(secs)
		}
	}

	replicas := 1
	if workload == wlGateway {
		replicas = 2
	}
	for i := 0; i < replicas; i++ {
		ctrl := core.NewController(core.NewGHNRegistry())
		url, err := e.serve(ctx, ctrl.Handler())
		if err != nil {
			return nil, err
		}
		e.ctrls = append(e.ctrls, ctrl)
		e.ctrlURLs = append(e.ctrlURLs, url)
	}
	if workload != wlGateway {
		if workload == wlChurn && sc.churnCache > 0 {
			engine.SetEmbeddingCacheSize(sc.churnCache)
		}
		if workload == wlOpen {
			e.ctrls[0].SetLimits(openBodyCap, 0)
		}
		e.ctrls[0].AddEngine(engine)
		e.datasets = []string{e.ds.Name}
		e.target = e.ctrlURLs[0]
		return e, nil
	}

	if e.gw, err = gateway.New(gateway.Options{Replicas: e.ctrlURLs, Seed: trainSeed}); err != nil {
		return nil, err
	}
	e.gw.CheckNow(ctx)
	// Ring ownership depends on the replicas' ephemeral ports, so look for
	// one dataset name per shard; both engines share the trained GHN and
	// regressor, as replicas of one predictor would.
	e.datasets = make([]string, replicas)
	for found, i := 0, 0; found < replicas; i++ {
		if i == 4096 {
			return nil, errors.New("no dataset name maps to every shard")
		}
		name := fmt.Sprintf("shard-%03d", i)
		owner, _ := e.gw.Ring().Owner(name)
		for r, url := range e.ctrlURLs {
			if owner == url && e.datasets[r] == "" {
				e.datasets[r] = name
				e.ctrls[r].AddEngine(core.NewInferenceEngine(name, e.ghn, e.model))
				found++
			}
		}
	}
	if e.target, err = e.serve(ctx, e.gw.Handler()); err != nil {
		return nil, err
	}
	return e, nil
}

// targets is the workload's entry point once per client.
func (e *env) targets() []string {
	out := make([]string, clients)
	for c := range out {
		out[c] = e.target
	}
	return out
}

// serve mounts a handler on a loopback core.Server and returns its base URL.
func (e *env) serve(ctx context.Context, h http.Handler) (string, error) {
	srv, err := core.NewServer("127.0.0.1:0", h, core.ServerOptions{})
	if err != nil {
		return "", err
	}
	serveCtx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(serveCtx) }()
	e.stops = append(e.stops, func() error {
		cancel()
		return <-done
	})
	return "http://" + srv.Addr(), nil
}

// close stops the servers, front door first so forwards drain before their
// replicas go away.
func (e *env) close() error {
	var errs []error
	for i := len(e.stops) - 1; i >= 0; i-- {
		if err := e.stops[i](); err != nil {
			errs = append(errs, err)
		}
	}
	e.stops = nil
	return errors.Join(errs...)
}
