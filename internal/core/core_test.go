package core

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"predictddl/internal/cluster"
	"predictddl/internal/dataset"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/regress"
	"predictddl/internal/simulator"
	"predictddl/internal/tensor"
)

// trainTestEngine builds a small but real end-to-end engine once and shares
// it across tests (training the GHN and fitting the regressor is the
// expensive part).
var (
	engineOnce sync.Once
	testEngine *InferenceEngine
	testResult *TrainResult
	engineErr  error
)

func sharedEngine(t *testing.T) (*InferenceEngine, *TrainResult) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping fully-trained engine in -short mode")
	}
	engineOnce.Do(func() {
		testResult, engineErr = TrainEngine(TrainOptions{
			Dataset:     dataset.CIFAR10(),
			GHNConfig:   ghn.Config{HiddenDim: 32},
			GHNTraining: ghn.TrainConfig{Graphs: 128, Epochs: 12, Seed: 1},
			Campaign: simulator.CampaignSpec{
				// A broad pool (resnet50, vgg13, squeezenet1_0 held out for
				// the unseen-architecture test).
				Models: []string{
					"resnet18", "resnet34", "resnet101", "vgg11", "vgg16",
					"vgg19", "alexnet", "squeezenet1_1", "mobilenet_v2",
					"mobilenet_v3_large", "densenet121", "densenet169",
					"efficientnet_b0", "resnext50_32x4d", "wide_resnet50_2",
				},
				ServerSpec:   cluster.SpecGPUP100(),
				ServerCounts: simulator.CountRange(1, 12),
			},
		})
		if engineErr == nil {
			testEngine = testResult.Engine
		}
	})
	if engineErr != nil {
		t.Fatal(engineErr)
	}
	return testEngine, testResult
}

func TestTrainEngineEndToEnd(t *testing.T) {
	e, res := sharedEngine(t)
	if e.Dataset() != "cifar10" {
		t.Fatalf("dataset = %q", e.Dataset())
	}
	if len(res.Points) != 15*12 {
		t.Fatalf("points = %d, want 180", len(res.Points))
	}
	if res.GHNReport.FinalLoss >= res.GHNReport.InitialLoss {
		t.Fatal("GHN training did not reduce loss")
	}
	if res.GHNTrainTime <= 0 || res.CampaignTime <= 0 || res.EmbedFitTime <= 0 {
		t.Fatalf("stage timings not recorded: %+v", res)
	}
}

func TestEngineInterpolatesTrainingSet(t *testing.T) {
	e, res := sharedEngine(t)
	var rels []float64
	for _, p := range res.Points {
		g := graph.MustBuild(p.Model, dataset.CIFAR10().GraphConfig())
		pred, err := e.Predict(g, cluster.Homogeneous(p.NumServers, cluster.SpecGPUP100()))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, math.Abs(pred-p.Seconds)/p.Seconds)
	}
	if mean := tensor.Mean(rels); mean > 0.15 {
		t.Fatalf("mean relative error on training data = %.1f%%", mean*100)
	}
}

// The reusability claim: an architecture never seen by the regressor is
// predicted with sane error, with zero retraining.
func TestEnginePredictsUnseenArchitecture(t *testing.T) {
	e, _ := sharedEngine(t)
	sim := simulator.New(1, simulator.Options{})
	d := dataset.CIFAR10()
	for _, unseen := range []string{"resnet50", "vgg13", "squeezenet1_0"} {
		g := graph.MustBuild(unseen, d.GraphConfig())
		c := cluster.Homogeneous(8, cluster.SpecGPUP100())
		pred, err := e.Predict(g, c)
		if err != nil {
			t.Fatal(err)
		}
		actual, err := sim.TrainingTime(simulator.Workload{Graph: g, Dataset: d, BatchPerServer: 128, Epochs: 10}, c)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(pred-actual) / actual; rel > 0.5 {
			t.Errorf("%s: unseen-architecture relative error %.0f%% (pred %.1f actual %.1f)", unseen, rel*100, pred, actual)
		}
	}
}

func TestEmbeddingCache(t *testing.T) {
	e, _ := sharedEngine(t)
	g := graph.MustBuild("resnet18", graph.DefaultConfig())
	a, err := e.Embedding(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Embedding(g)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("second call did not hit the cache")
	}
	if _, err := e.Embedding(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestSimilarityAndClosestMatch(t *testing.T) {
	e, _ := sharedEngine(t)
	cfg := graph.DefaultConfig()
	target := graph.MustBuild("vgg13", cfg)
	candidates := []*graph.Graph{
		graph.MustBuild("vgg16", cfg),
		graph.MustBuild("mobilenet_v3_small", cfg),
		graph.MustBuild("densenet121", cfg),
	}
	best, bestSim := "", -2.0
	for _, cand := range candidates {
		sim, err := e.Similarity(target, cand)
		if err != nil {
			t.Fatal(err)
		}
		if sim < -1 || sim > 1 {
			t.Fatalf("similarity %v outside [-1,1]", sim)
		}
		if sim > bestSim {
			best, bestSim = cand.Name, sim
		}
	}
	if best != "vgg16" {
		t.Fatalf("closest match to vgg13 = %s (sim %.3f), want vgg16", best, bestSim)
	}
}

func TestPredictInvalidCluster(t *testing.T) {
	e, _ := sharedEngine(t)
	g := graph.MustBuild("resnet18", graph.DefaultConfig())
	if _, err := e.Predict(g, cluster.Cluster{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestGHNRegistry(t *testing.T) {
	r := NewGHNRegistry()
	if r.Has("cifar10") {
		t.Fatal("empty registry claims a model")
	}
	r.Put("cifar10", ghn.New(ghn.Config{HiddenDim: 8}, tensor.NewRNG(1)))
	if !r.Has("cifar10") {
		t.Fatal("registered GHN not reported")
	}
	if ds := r.Datasets(); len(ds) != 1 || ds[0] != "cifar10" {
		t.Fatalf("Datasets = %v", ds)
	}
}

func TestDesignMatrixErrors(t *testing.T) {
	g := ghn.New(ghn.Config{HiddenDim: 8}, tensor.NewRNG(1))
	if _, _, _, err := DesignMatrixWithEmbeddings(g, nil, graph.DefaultConfig()); err == nil {
		t.Fatal("empty points accepted")
	}
	bad := []simulator.DataPoint{{Model: "no-such-model", Seconds: 1}}
	if _, _, _, err := DesignMatrixWithEmbeddings(g, bad, graph.DefaultConfig()); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestTrainEngineRequiresDataset(t *testing.T) {
	if _, err := TrainEngine(TrainOptions{}); err == nil {
		t.Fatal("missing dataset accepted")
	}
}

func TestControllerPredictEndpoint(t *testing.T) {
	e, _ := sharedEngine(t)
	reg := NewGHNRegistry()
	ctrl := NewController(reg, e)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	body, _ := json.Marshal(PredictRequest{
		Dataset: "cifar10", Model: "resnet18",
		NumServers: 4, ServerSpec: "cloudlab-p100",
	})
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.PredictedSeconds <= 0 || pr.NumServers != 4 || pr.Regressor == "" {
		t.Fatalf("response = %+v", pr)
	}
}

// A by-name request must be priced on the graph training embedded: the zoo
// model at the dataset's own sample shape (dataset.GraphConfig), for every
// known dataset. Engines registered under a name dataset.Lookup does not
// know keep the zoo defaults.
func TestControllerBuildsZooModelAtDatasetShape(t *testing.T) {
	const model = "resnet18"
	cases := map[string]graph.Config{"shard-007": {}}
	for _, name := range dataset.Names() {
		ds, err := dataset.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = ds.GraphConfig()
	}
	var engines []*InferenceEngine
	for name := range cases {
		g := ghn.New(ghn.Config{HiddenDim: 8}, tensor.NewRNG(1))
		engines = append(engines, NewInferenceEngine(name, g, sumSquares{}))
	}
	srv := httptest.NewServer(NewController(NewGHNRegistry(), engines...).Handler())
	defer srv.Close()

	cl := cluster.Homogeneous(4, cluster.SpecGPUP100())
	for _, e := range engines {
		name := e.Dataset()
		want, err := e.Predict(graph.MustBuild(model, cases[name]), cl)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(PredictRequest{Dataset: name, Model: model, NumServers: 4})
		resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var pr PredictResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decode error %v", name, resp.StatusCode, err)
		}
		if math.Float64bits(pr.PredictedSeconds) != math.Float64bits(want) {
			t.Fatalf("%s: /v1/predict = %v, engine on dataset-shaped graph = %v", name, pr.PredictedSeconds, want)
		}
	}

	// cifar10's shape is the zoo default, so its requests keep the
	// fingerprint (and warm cache entries) they had before.
	def := graph.MustBuild(model, graph.Config{}).Fingerprint()
	if got := graph.MustBuild(model, cases["cifar10"]).Fingerprint(); got != def {
		t.Fatalf("cifar10 fingerprint %s differs from zoo default %s", got, def)
	}
}

// sumSquares is a regressor whose estimate moves with every feature, so two
// different embeddings cannot collapse onto the engine's 1e-6 floor.
type sumSquares struct{}

func (sumSquares) Name() string                        { return "sum-squares" }
func (sumSquares) Fit(*tensor.Matrix, []float64) error { return nil }
func (sumSquares) Predict(f []float64) (float64, error) {
	return 1 + tensor.Dot(f, f), nil
}

func TestControllerTaskCheckerRejections(t *testing.T) {
	e, _ := sharedEngine(t)
	reg := NewGHNRegistry()
	ctrl := NewController(reg, e)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	cases := []struct {
		req  PredictRequest
		want int
	}{
		{PredictRequest{}, http.StatusBadRequest},                   // missing dataset
		{PredictRequest{Dataset: "cifar10"}, http.StatusBadRequest}, // missing model
		// No engine and no GHN: the client named an unknown dataset → 404.
		{PredictRequest{Dataset: "imagenet", Model: "x"}, http.StatusNotFound},
		{PredictRequest{Dataset: "cifar10", Model: "x"}, http.StatusBadRequest},        // unknown model
		{PredictRequest{Dataset: "cifar10", Model: "resnet18"}, http.StatusBadRequest}, // no servers, no collector
		{PredictRequest{Dataset: "cifar10", Model: "resnet18", NumServers: 2, ServerSpec: "nope"}, http.StatusBadRequest},
	}
	for i, tc := range cases {
		body, _ := json.Marshal(tc.req)
		resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("case %d: status = %d, want %d", i, resp.StatusCode, tc.want)
		}
	}

	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage JSON status = %d", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(srv.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict status = %d", resp.StatusCode)
	}
}

// A controller built the way predictddl.NewController builds it — an empty
// registry and the engines — must list every served dataset under
// ghn_datasets, sorted, including an engine added after the handler is
// mounted.
func TestStatusListsGHNDatasets(t *testing.T) {
	engine := func(ds string) *InferenceEngine {
		return NewInferenceEngine(ds, ghn.New(ghn.Config{HiddenDim: 8}, tensor.NewRNG(1)), nil)
	}
	ctrl := NewController(NewGHNRegistry(), engine("tiny-imagenet"), engine("cifar10"))
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()
	ctrl.AddEngine(engine("imagenet"))

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	want := []string{"cifar10", "imagenet", "tiny-imagenet"}
	if !reflect.DeepEqual(st.GHNDatasets, want) || !reflect.DeepEqual(st.Datasets, want) {
		t.Fatalf("status = %+v, want datasets and ghn_datasets %v", st, want)
	}
}

func TestControllerStatusAndModels(t *testing.T) {
	e, _ := sharedEngine(t)
	reg := NewGHNRegistry()
	reg.Put("cifar10", ghn.New(ghn.Config{HiddenDim: 8}, tensor.NewRNG(1)))
	ctrl := NewController(reg, e)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Datasets) != 1 || len(st.GHNDatasets) != 1 {
		t.Fatalf("status = %+v", st)
	}

	resp, err = http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models["models"]) != 31 {
		t.Fatalf("models = %d", len(models["models"]))
	}
}

func TestControllerWithLiveCollector(t *testing.T) {
	e, _ := sharedEngine(t)
	col, err := cluster.NewCollector("127.0.0.1:0", cluster.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	agent, err := cluster.DialAgent(col.Addr(), "node-1", cluster.SpecGPUP100())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	// Wait for the registration to land.
	deadline := time.Now().Add(5 * time.Second)
	for len(col.Snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent registration never arrived")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctrl := NewController(NewGHNRegistry(), e)
	ctrl.SetCollector(col)
	srv := httptest.NewServer(ctrl.Handler())
	defer srv.Close()

	body, _ := json.Marshal(PredictRequest{Dataset: "cifar10", Model: "resnet18"})
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.NumServers != 1 {
		t.Fatalf("live cluster size = %d, want 1", pr.NumServers)
	}
}

func TestEngineWithAlternateRegressors(t *testing.T) {
	// The engine must accept any Regressor (the paper's extensibility
	// objective). Reuse the shared GHN to keep this fast.
	_, res := sharedEngine(t)
	for _, mk := range []func() regress.Regressor{
		func() regress.Regressor { return regress.NewLinearRegression() },
		func() regress.Regressor { return regress.NewMLPRegressor(3) },
	} {
		r, err := TrainEngine(TrainOptions{
			Dataset:   dataset.CIFAR10(),
			GHN:       engineGHN(res),
			Regressor: mk(),
			Campaign: simulator.CampaignSpec{
				Models:       []string{"resnet18", "vgg11"},
				ServerSpec:   cluster.SpecGPUP100(),
				ServerCounts: simulator.CountRange(1, 6),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		g := graph.MustBuild("resnet18", graph.DefaultConfig())
		p, err := r.Engine.Predict(g, cluster.Homogeneous(4, cluster.SpecGPUP100()))
		if err != nil {
			t.Fatal(err)
		}
		if p <= 0 {
			t.Fatalf("%s predicted %v", r.Engine.ModelName(), p)
		}
	}
}

// engineGHN digs the trained GHN out of a result for reuse.
func engineGHN(res *TrainResult) *ghn.GHN { return res.Engine.ghn }

func TestConfidenceIdentifiesKnownAndUnknown(t *testing.T) {
	e, _ := sharedEngine(t)
	// A campaign model matches itself with similarity ~1.
	self := graph.MustBuild("resnet18", dataset.CIFAR10().GraphConfig())
	name, sim, err := e.Confidence(self)
	if err != nil {
		t.Fatal(err)
	}
	if name != "resnet18" || sim < 0.999 {
		t.Fatalf("self confidence = %q/%v", name, sim)
	}
	// An unseen family member lands near its relatives with decent score.
	unseen := graph.MustBuild("vgg13", dataset.CIFAR10().GraphConfig())
	name, sim, err = e.Confidence(unseen)
	if err != nil {
		t.Fatal(err)
	}
	if name != "vgg11" && name != "vgg16" && name != "vgg19" {
		t.Fatalf("vgg13 closest to %q (sim %v)", name, sim)
	}
	// A random architecture scores below the family member.
	random := graph.RandomGraph(tensor.NewRNG(5), graph.DefaultConfig())
	_, randSim, err := e.Confidence(random)
	if err != nil {
		t.Fatal(err)
	}
	if randSim >= sim {
		t.Fatalf("random arch confidence %v ≥ family member %v", randSim, sim)
	}
}

func TestConfidenceWithoutReference(t *testing.T) {
	g := ghn.New(ghn.Config{HiddenDim: 8}, tensor.NewRNG(1))
	e := NewInferenceEngine("cifar10", g, regress.NewLinearRegression())
	if _, _, err := e.Confidence(graph.MustBuild("resnet18", graph.DefaultConfig())); err == nil {
		t.Fatal("missing reference set not reported")
	}
}

func TestEngineSaveLoadKeepsReference(t *testing.T) {
	e, _ := sharedEngine(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.MustBuild("resnet18", dataset.CIFAR10().GraphConfig())
	name, sim, err := back.Confidence(g)
	if err != nil {
		t.Fatal(err)
	}
	if name != "resnet18" || sim < 0.999 {
		t.Fatalf("reference lost on round trip: %q/%v", name, sim)
	}
}
