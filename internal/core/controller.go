package core

import (
	"cmp"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"sort"
	"sync"

	"predictddl/internal/cluster"
	"predictddl/internal/graph"
	"predictddl/internal/obs"
)

// Admission-control defaults (DESIGN.md §8). Both are per-request ceilings:
// the body cap stops a single client from buffering arbitrary JSON in the
// controller, the batch cap bounds the fan-out work one POST can demand.
const (
	DefaultMaxBodyBytes  = 8 << 20 // 8 MiB — roomy for large custom graph specs
	DefaultMaxBatchItems = 256
)

// Sentinel errors classifying Task Checker failures so the HTTP layer can
// map them to the right status: a missing engine is the client naming an
// unknown dataset (404), an empty live inventory is a degraded-but-retryable
// server state (503). Everything else checkRequest returns is bad input (400).
var (
	// ErrNoEngine reports that no inference engine serves the requested
	// dataset.
	ErrNoEngine = errors.New("no inference engine for dataset")
	// ErrEmptyInventory reports that the live cluster inventory has no
	// servers to predict against.
	ErrEmptyInventory = errors.New("live cluster inventory is empty")
)

// Controller is the entry point of PredictDDL (§III-D): its Listener
// receives prediction requests over HTTP, the Task Checker validates them
// and routes between the inference path and the offline-training path, and
// responses carry the predicted training time.
type Controller struct {
	mu       sync.RWMutex
	engines  map[string]*InferenceEngine //ddlvet:guardedby mu
	registry *GHNRegistry

	// collector, when set via SetCollector, supplies the live cluster
	// inventory so requests can omit explicit cluster configurations.
	// Guarded by mu: handlers read it while serving, and attachment may
	// happen after the server is already live.
	collector *cluster.Collector //ddlvet:guardedby mu

	// Admission limits, guarded by mu (see SetLimits).
	maxBodyBytes  int64 //ddlvet:guardedby mu
	maxBatchItems int   //ddlvet:guardedby mu

	// metrics is the observability registry, fixed at construction (see
	// metrics.go); traceLog optionally receives server-side trace lines,
	// guarded by mu. mw is the request middleware Handler mounts and
	// batchSize the http.batch.size histogram, resolved on first use.
	metrics   *obs.Registry
	traceLog  *log.Logger //ddlvet:guardedby mu
	mw        *obs.Middleware
	batchSize func() *obs.Histogram
}

// NewController returns a controller serving the given engines with the
// default admission limits; each engine is added as AddEngine adds one.
func NewController(registry *GHNRegistry, engines ...*InferenceEngine) *Controller {
	return newController(obs.NewRegistry(nil), registry, engines...)
}

// newController is NewController reporting into metrics; tests pass a
// fake-clock registry.
func newController(metrics *obs.Registry, registry *GHNRegistry, engines ...*InferenceEngine) *Controller {
	c := &Controller{
		engines:       make(map[string]*InferenceEngine),
		registry:      registry,
		maxBodyBytes:  DefaultMaxBodyBytes,
		maxBatchItems: DefaultMaxBatchItems,
		metrics:       metrics,
		batchSize: sync.OnceValue(func() *obs.Histogram {
			return metrics.Histogram("http.batch.size", obs.SizeBuckets(DefaultMaxBatchItems))
		}),
	}
	c.mw = &obs.Middleware{Registry: metrics, IDs: obs.NewIDSource("req"), TraceLog: c.traceLogger}
	for _, e := range engines {
		c.AddEngine(e)
	}
	return c
}

// SetCollector attaches (or detaches, with nil) the live-inventory
// collector. Safe to call at any time, including while serving.
func (c *Controller) SetCollector(col *cluster.Collector) {
	c.mu.Lock()
	c.collector = col
	c.mu.Unlock()
}

// Collector returns the attached collector, or nil.
func (c *Controller) Collector() *cluster.Collector {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.collector
}

// SetLimits adjusts the admission-control ceilings: maxBodyBytes bounds
// every POST body (<= 0 restores the default), maxBatchItems bounds
// /v1/predict/batch request counts (<= 0 restores the default). Safe to
// call at any time.
func (c *Controller) SetLimits(maxBodyBytes int64, maxBatchItems int) {
	if maxBodyBytes <= 0 {
		maxBodyBytes = DefaultMaxBodyBytes
	}
	if maxBatchItems <= 0 {
		maxBatchItems = DefaultMaxBatchItems
	}
	c.mu.Lock()
	c.maxBodyBytes, c.maxBatchItems = maxBodyBytes, maxBatchItems
	c.mu.Unlock()
}

// limits returns the current admission ceilings.
func (c *Controller) limits() (int64, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.maxBodyBytes, c.maxBatchItems
}

// AddEngine registers an inference engine for its dataset, enters its GHN
// in the controller's GHN registry (a nil registry is left alone) so that
// /v1/status lists the dataset under ghn_datasets, and instruments the
// engine against the controller's metrics registry.
func (c *Controller) AddEngine(e *InferenceEngine) {
	c.mu.Lock()
	c.engines[e.Dataset()] = e
	c.mu.Unlock()
	if c.registry != nil {
		c.registry.Put(e.Dataset(), e.ghn)
	}
	e.Instrument(c.metrics)
}

// Engine returns the engine for a dataset.
func (c *Controller) Engine(dataset string) (*InferenceEngine, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.engines[dataset]
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrNoEngine, dataset)
	}
	return e, nil
}

// PredictRequest is the JSON body of POST /v1/predict — the user input of
// Fig. 7 step 1: dataset type, DNN architecture, and cluster description.
type PredictRequest struct {
	// Dataset is the dataset type, e.g. "cifar10".
	Dataset string `json:"dataset"`
	// Model is a zoo architecture name, e.g. "resnet18". Mutually
	// exclusive with Graph.
	Model string `json:"model,omitempty"`
	// Graph submits a custom DNN architecture as a computational-graph
	// spec — the general path for workloads outside the built-in zoo
	// (modern DL frameworks export this DAG automatically, §III-B).
	Graph *graph.Spec `json:"graph,omitempty"`
	// NumServers and ServerSpec describe the target cluster. When
	// NumServers is 0 and a collector is attached, the live inventory is
	// used instead.
	NumServers int    `json:"num_servers"`
	ServerSpec string `json:"server_spec"`
}

// PredictResponse is the JSON reply.
type PredictResponse struct {
	Dataset          string  `json:"dataset"`
	Model            string  `json:"model"`
	NumServers       int     `json:"num_servers"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	Regressor        string  `json:"regressor"`
	// Trace carries the stage-timing breakdown when the request opted in
	// with ?trace=1 (DESIGN.md §9); omitted otherwise.
	Trace *obs.TraceReport `json:"trace,omitempty"`
}

// resolve is step 1 of pricing a request (DESIGN.md §17): the Task Checker
// (Fig. 7 step 3) resolves the engine, architecture and cluster, then the
// engine runs Predict's own checks. Builds and hashes go through m, so a
// batch does each once per architecture; nil does every one.
// A Task Checker failure carries its status (checkStatus); what fails
// after it is a server fault.
func (c *Controller) resolve(req PredictRequest, m *memo) job {
	engine, g, cl, err := c.checkRequest(req, m)
	if err != nil {
		return job{err: err, code: checkStatus(err)}
	}
	return engine.newJob(g, cl, m)
}

// checkRequest is the Task Checker: it validates the request and resolves
// the engine, architecture, and cluster.
func (c *Controller) checkRequest(req PredictRequest, m *memo) (engine *InferenceEngine, g *graph.Graph, cl cluster.Cluster, err error) {
	if req.Dataset == "" {
		return nil, nil, cl, fmt.Errorf("core: request missing dataset")
	}
	if engine, err = c.Engine(req.Dataset); err != nil {
		if c.registry != nil && !c.registry.Has(req.Dataset) {
			err = fmt.Errorf("core: %w %q (no trained GHN; submit it for offline training first)", ErrNoEngine, req.Dataset)
		}
		return nil, nil, cl, err
	}
	switch {
	case req.Model != "" && req.Graph != nil:
		err = fmt.Errorf("core: request must set model or graph, not both")
	case req.Graph != nil:
		g, err = graph.FromSpec(req.Graph)
	case req.Model != "":
		g, err = m.build(engine, req.Model)
	default:
		err = fmt.Errorf("core: request missing model (or custom graph)")
	}
	if err != nil {
		return nil, nil, cl, err
	}

	col := c.Collector()
	switch {
	case req.NumServers > 0:
		specName := req.ServerSpec
		if specName == "" {
			specName = cluster.SpecGPUP100().Name
		}
		spec, err := cluster.LookupSpec(specName)
		if err != nil {
			return nil, nil, cl, err
		}
		cl = cluster.Homogeneous(req.NumServers, spec)
	case col != nil:
		if cl = col.Cluster(); cl.Size() == 0 {
			return nil, nil, cluster.Cluster{}, fmt.Errorf("core: %w", ErrEmptyInventory)
		}
	default:
		return nil, nil, cl, fmt.Errorf("core: request needs num_servers > 0 (no resource collector attached)")
	}
	return engine, g, cl, nil
}

// Handler returns the HTTP mux implementing the controller API. Every
// endpoint runs behind the observability middleware (obs.Middleware); the
// introspection endpoints /v1/metrics and /debug/vars are served raw so
// scraping them does not perturb the request counters they report.
func (c *Controller) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", c.mw.Wrap("predict", c.handlePredict))
	mux.HandleFunc("/v1/predict/batch", c.mw.Wrap("batch", c.handleBatch))
	mux.HandleFunc("/v1/batch", c.mw.Wrap("batch", c.handleBatch)) // legacy alias
	mux.HandleFunc("/v1/status", c.mw.Wrap("status", c.handleStatus))
	mux.HandleFunc("/v1/models", c.mw.Wrap("models", c.handleModels))
	mux.HandleFunc("/v1/inventory", c.mw.Wrap("inventory", c.handleInventory))
	mux.Handle("/v1/metrics", obs.Handler(c.metrics))
	mux.Handle("/debug/vars", obs.TextHandler(c.metrics))
	return mux
}

// BatchRequest submits several prediction requests at once — the Fig. 13
// batch-job scenario over the wire.
type BatchRequest struct {
	Requests []PredictRequest `json:"requests"`
}

// BatchItem is one request's outcome; failed items carry Error plus the
// status Code the same failure would produce on /v1/predict, and leave the
// prediction zero, so one bad request does not fail the batch and clients
// can still distinguish bad input (400/404) from a degraded server (503).
type BatchItem struct {
	PredictResponse
	Error string `json:"error,omitempty"`
	Code  int    `json:"code,omitempty"`
}

// BatchResponse is the ordered list of per-request outcomes.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
	// Trace carries the batch-level stage breakdown (decode, fanout) when
	// the request opted in with ?trace=1; omitted otherwise.
	Trace *obs.TraceReport `json:"trace,omitempty"`
}

func (c *Controller) handleBatch(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r)
	maxBody, maxItems := c.limits()
	var req BatchRequest
	if _, ok := Admit(w, r, tr, maxBody, &req); !ok {
		return
	}
	n := len(req.Requests)
	if n > 0 {
		// Record every non-empty batch's size — including over-limit ones, which
		// land in the overflow bucket and show operators who is hitting the cap.
		c.batchSize().Observe(float64(n))
	}
	if RejectBatch(w, n, maxItems) {
		return
	}
	stop := tr.Stage("fanout")
	resp := BatchResponse{Results: c.predictBatch(req.Requests)}
	stop()
	if tr != nil {
		rep := tr.Report()
		resp.Trace = &rep
	}
	obs.WriteJSON(w, resp)
}

// predictBatch is the batch body (DESIGN.md §17): every item resolved,
// embedded and priced on the worker pool as /v1/predict would price it,
// each worker writing only its own slot, with one memo for the request so
// each architecture is built, hashed and embedded once.
func (c *Controller) predictBatch(requests []PredictRequest) []BatchItem {
	items := make([]BatchItem, len(requests))
	m := new(memo)
	parallelEach(len(requests), func(i int) {
		j := c.resolve(requests[i], m)
		j.price(m, nil)
		item := &items[i]
		var err error
		if item.PredictResponse, item.Code, err = j.reply(requests[i]); err != nil {
			item.Error = err.Error()
		}
	})
	return items
}

// predictOne is /v1/predict's body: the one-item case of predictBatch,
// without a memo, with the check, embed and regress stages traced on tr
// (which may be nil).
func (c *Controller) predictOne(pr PredictRequest, tr *obs.Trace) (PredictResponse, int, error) {
	stop := tr.Stage("check")
	j := c.resolve(pr, nil)
	stop()
	j.price(nil, tr)
	return j.reply(pr)
}

// reply turns a priced job into its /v1/predict answer. A failure returns
// the error and the status it maps to; success leaves the code zero (a
// batch item omits it).
func (j *job) reply(pr PredictRequest) (PredictResponse, int, error) {
	if j.err != nil {
		return PredictResponse{}, cmp.Or(j.code, http.StatusInternalServerError), j.err
	}
	if math.IsNaN(j.secs) || math.IsInf(j.secs, 0) {
		// JSON cannot carry it: without this the reply is a 200 header and
		// no body.
		return PredictResponse{}, http.StatusInternalServerError, fmt.Errorf("core: non-finite prediction %v for dataset %q", j.secs, pr.Dataset)
	}
	model := pr.Model
	if model == "" {
		model = j.g.Name
	}
	return PredictResponse{
		Dataset:          pr.Dataset,
		Model:            model,
		NumServers:       j.cl.Size(),
		PredictedSeconds: j.secs,
		Regressor:        j.engine.ModelName(),
	}, 0, nil
}

func (c *Controller) handlePredict(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r) // nil (and a no-op) unless the request set ?trace=1
	maxBody, _ := c.limits()
	var req PredictRequest
	if _, ok := Admit(w, r, tr, maxBody, &req); !ok {
		return
	}
	resp, code, err := c.predictOne(req, tr)
	if err != nil {
		obs.HTTPError(w, code, err.Error())
		return
	}
	if tr != nil {
		rep := tr.Report()
		resp.Trace = &rep
	}
	obs.WriteJSON(w, resp)
}

// StatusResponse reports controller state. LiveHosts names the live
// inventory (sorted) so a gateway can union host sets across replicas
// instead of guessing from the count alone.
type StatusResponse struct {
	Datasets    []string `json:"datasets"`
	GHNDatasets []string `json:"ghn_datasets"`
	LiveServers int      `json:"live_servers"`
	LiveHosts   []string `json:"live_hosts,omitempty"`
}

func (c *Controller) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		obs.HTTPError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	c.mu.RLock()
	datasets := make([]string, 0, len(c.engines))
	for d := range c.engines {
		datasets = append(datasets, d)
	}
	c.mu.RUnlock()
	sort.Strings(datasets) // stable response bytes across identical runs
	resp := StatusResponse{Datasets: datasets}
	if c.registry != nil {
		resp.GHNDatasets = c.registry.Datasets()
	}
	if col := c.Collector(); col != nil {
		snap := col.Snapshot() // already sorted by hostname
		resp.LiveServers = len(snap)
		resp.LiveHosts = make([]string, len(snap))
		for i, s := range snap {
			resp.LiveHosts[i] = s.Hostname
		}
	}
	obs.WriteJSON(w, resp)
}

// InventoryResponse is the GET /v1/inventory reply: the controller's live
// inventory rendered as replication entries (ages, not timestamps), ready
// to be merged into a peer collector or pushed via cluster.SendInventory.
type InventoryResponse struct {
	Servers []cluster.WireServer `json:"servers"`
}

// handleInventory serves the live inventory in wire form so a gateway can
// replicate it across the topology (DESIGN.md §13). Without a collector
// the inventory is empty, not an error: a controller serving explicit
// num_servers requests simply has nothing to replicate.
func (c *Controller) handleInventory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		obs.HTTPError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := InventoryResponse{Servers: []cluster.WireServer{}}
	if col := c.Collector(); col != nil {
		resp.Servers = col.InventoryEntries()
	}
	obs.WriteJSON(w, resp)
}

func (c *Controller) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		obs.HTTPError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	obs.WriteJSON(w, map[string][]string{"models": graph.Zoo()})
}

// checkStatus maps a Task Checker failure to its HTTP status: unknown
// dataset → 404, empty live inventory → 503 (retryable operational state),
// anything else → 400 (bad input).
func checkStatus(err error) int {
	switch {
	case errors.Is(err, ErrNoEngine):
		return http.StatusNotFound
	case errors.Is(err, ErrEmptyInventory):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// RejectBatch is batch admission, shared with the gateway so both front
// doors refuse the same batches in the same words: an empty batch is 400,
// one of more than maxItems requests is 413. It writes the refusal and
// reports whether there was one.
func RejectBatch(w http.ResponseWriter, n, maxItems int) bool {
	switch {
	case n == 0:
		obs.HTTPError(w, http.StatusBadRequest, "empty batch")
	case n > maxItems:
		obs.HTTPError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-item limit; split the request", n, maxItems))
	default:
		return false
	}
	return true
}
