package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"predictddl/internal/cluster"
	"predictddl/internal/ghn"
	"predictddl/internal/graph"
	"predictddl/internal/obs"
	"predictddl/internal/regress"
	"predictddl/internal/tensor"
)

// InferenceEngine predicts the training time of a DL workload from the
// DNN's GHN embedding concatenated with cluster descriptor features
// (§III-C). It is built once per dataset by the Offline Trainer and then
// reused across arbitrary DNN architectures without retraining — the
// paper's central claim.
//
// All methods are safe for concurrent use.
type InferenceEngine struct {
	dataset string
	ghn     *ghn.GHN
	model   regress.Regressor
	// kind is the model's feature schema, fixed at construction: embedding
	// backends consume [GHN embedding ‖ cluster features], analytic backends
	// (the roofline) consume costmodel.AnalyticFeatures and never touch the
	// GHN on the predict path.
	kind regress.FeatureKind

	mu sync.Mutex
	// cache is the content-addressed embedding cache: keyed by
	// graph.Fingerprint(), so renamed, modified, and anonymous graphs all
	// resolve correctly (a name-keyed cache returns stale embeddings when
	// two different graphs share a zoo name). It is size-capped with
	// deterministic FIFO eviction so a stream of distinct custom graphs
	// cannot exhaust memory (DESIGN.md §8).
	cache *embedCache //ddlvet:guardedby mu
	// The Confidence reference set, precomputed once in SetReference:
	// refNames is sorted so the best-match scan is deterministic, refRaw
	// holds the embeddings as given (persisted by Save), refCentered holds
	// them centered on refMean (what Confidence actually compares).
	refNames    []string    //ddlvet:guardedby mu
	refRaw      [][]float64 //ddlvet:guardedby mu
	refCentered [][]float64 //ddlvet:guardedby mu
	refMean     []float64   //ddlvet:guardedby mu
	// cacheHits/cacheMisses are attached by Instrument (nil until then; all
	// counter methods are nil-safe). The eviction counter lives on the cache
	// itself, next to the eviction loop.
	cacheHits   *obs.Counter //ddlvet:guardedby mu
	cacheMisses *obs.Counter //ddlvet:guardedby mu
}

// NewInferenceEngine assembles an engine from a trained GHN and a fitted
// regressor whose input dimensionality must equal
// ghn.EmbeddingDim() + len(cluster.FeatureNames()).
func NewInferenceEngine(dataset string, g *ghn.GHN, model regress.Regressor) *InferenceEngine {
	return &InferenceEngine{
		dataset: dataset,
		ghn:     g,
		model:   model,
		kind:    regress.KindOf(model),
		cache:   newEmbedCache(DefaultEmbeddingCacheSize),
	}
}

// SetEmbeddingCacheSize rebounds the embedding cache to at most n entries
// (n <= 0 removes the bound). The cache is cleared: embeddings are pure
// functions of (weights, graph), so dropping them affects latency only,
// never results. Safe to call concurrently with predictions.
func (e *InferenceEngine) SetEmbeddingCacheSize(n int) {
	e.mu.Lock()
	evictions := e.cache.evictions // keep the instrumented counter across the swap
	e.cache = newEmbedCache(n)
	e.cache.evictions = evictions
	e.mu.Unlock()
}

// Instrument attaches the engine to a metrics registry (DESIGN.md §9): the
// embedding-cache hit/miss/eviction counters, plus the ghn.* family (embed
// latency, train step time) on the underlying GHN. Counters are shared by
// name, so several engines on one controller aggregate into one family.
// Instrumentation never changes prediction results.
func (e *InferenceEngine) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	hits := r.Counter("embed.cache.hits")
	misses := r.Counter("embed.cache.misses")
	evictions := r.Counter("embed.cache.evictions")
	e.mu.Lock()
	e.cacheHits, e.cacheMisses = hits, misses
	e.cache.evictions = evictions
	e.mu.Unlock()
	e.ghn.SetMetrics(ghn.NewMetrics(r))
}

// EmbeddingCacheLen reports the number of cached embeddings.
func (e *InferenceEngine) EmbeddingCacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.len()
}

// Dataset returns the dataset type this engine was trained for.
func (e *InferenceEngine) Dataset() string { return e.dataset }

// ModelName returns the underlying regressor family.
func (e *InferenceEngine) ModelName() string { return e.model.Name() }

// Embedding returns the GHN embedding for an architecture, cached under the
// graph's content fingerprint. Callers must treat the returned slice as
// read-only: it is shared with every other caller of the same architecture.
func (e *InferenceEngine) Embedding(g *graph.Graph) ([]float64, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	return e.embedding(g, g.Fingerprint(), nil)
}

// embedding is Embedding with the fingerprint already computed: one cache
// lookup, and on a miss the GHN pass, shared through m with the other jobs
// of a request that miss on the same fingerprint.
func (e *InferenceEngine) embedding(g *graph.Graph, key string, m *memo) ([]float64, error) {
	e.mu.Lock()
	cached, ok := e.cache.get(key)
	hits, misses := e.cacheHits, e.cacheMisses
	e.mu.Unlock()
	if ok {
		hits.Inc()
		return cached, nil
	}
	misses.Inc()
	emb, err := m.embed(e, g, key)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	// put keeps the first-inserted slice when a concurrent caller won the
	// race, so repeated lookups stay pointer-stable.
	emb = e.cache.put(key, emb)
	e.mu.Unlock()
	return emb, nil
}

// parallelEach runs fn(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines and returns once all calls have. Workers claim indices from a
// shared counter, so uneven items balance; fn must confine its writes to
// slot i.
func parallelEach(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// EmbedAll returns the embedding of every graph, index-aligned with the
// input, on a worker pool sized by GOMAXPROCS; each distinct graph is
// hashed once and each distinct missing architecture embedded once.
// Embeddings are pure functions of (weights, graph), so results are
// identical to the serial loop. The first bad graph fails the call.
func (e *InferenceEngine) EmbedAll(graphs []*graph.Graph) ([][]float64, error) {
	out := make([][]float64, len(graphs))
	errs := make([]error, len(graphs))
	m := new(memo)
	parallelEach(len(graphs), func(i int) {
		g := graphs[i]
		if g == nil {
			errs[i] = fmt.Errorf("core: nil graph at index %d", i)
		} else if out[i], errs[i] = e.embedding(g, m.fingerprint(g), m); errs[i] != nil {
			errs[i] = fmt.Errorf("core: embedding %q: %w", g.Name, errs[i])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Predict estimates the training time in seconds for running the DNN on
// the cluster: the one-job case of PredictBatch. Negative regressor outputs
// are clamped to a small positive floor (times are physical quantities).
func (e *InferenceEngine) Predict(g *graph.Graph, c cluster.Cluster) (float64, error) {
	j := e.newJob(g, c, nil)
	j.price(nil, nil)
	return j.secs, j.err
}

// regress runs the fitted model on one feature row and applies the
// positive floor.
func (e *InferenceEngine) regress(g *graph.Graph, feats []float64, tr *obs.Trace) (float64, error) {
	stop := tr.Stage("regress")
	pred, err := e.model.Predict(feats)
	stop()
	if err != nil {
		return 0, fmt.Errorf("core: predict %s: %w", g.Name, err)
	}
	if pred < 1e-6 {
		pred = 1e-6
	}
	return pred, nil
}

// BatchPrediction is one item of a PredictBatch result: either a predicted
// training time or the item's error.
type BatchPrediction struct {
	Seconds float64
	Err     error
}

// PredictBatch predicts every (graphs[i], clusters[i]) pair on the batch
// body (DESIGN.md §17): items run on a worker pool, each distinct
// *graph.Graph is fingerprinted once and each distinct missing
// architecture embedded once. Results are index-aligned and bit-identical
// to Predict, errors included; a bad item (nil or cyclic graph, invalid
// cluster) records its error without failing the batch.
func (e *InferenceEngine) PredictBatch(graphs []*graph.Graph, clusters []cluster.Cluster) ([]BatchPrediction, error) {
	if len(graphs) != len(clusters) {
		return nil, fmt.Errorf("core: batch has %d graphs but %d clusters", len(graphs), len(clusters))
	}
	out := make([]BatchPrediction, len(graphs))
	m := new(memo)
	parallelEach(len(graphs), func(i int) {
		j := e.newJob(graphs[i], clusters[i], m)
		j.price(m, nil)
		out[i] = BatchPrediction{Seconds: j.secs, Err: j.err}
	})
	return out, nil
}

// Similarity returns the cosine similarity between two architectures in
// the GHN embedding space (Fig. 5's distance-based similarity).
func (e *InferenceEngine) Similarity(a, b *graph.Graph) (float64, error) {
	ea, err := e.Embedding(a)
	if err != nil {
		return 0, err
	}
	eb, err := e.Embedding(b)
	if err != nil {
		return 0, err
	}
	return tensor.CosineSimilarity(ea, eb), nil
}

// SetReference seeds the engine with the campaign architectures' embeddings
// so Confidence can relate new workloads to known ones. The offline trainer
// calls this with the embeddings it already computed. The reference mean and
// the centered reference vectors are precomputed here, once, instead of on
// every Confidence call.
func (e *InferenceEngine) SetReference(embeddings map[string][]float64) {
	names := make([]string, 0, len(embeddings))
	for name := range embeddings {
		names = append(names, name)
	}
	sort.Strings(names)

	raw := make([][]float64, len(names))
	var mean []float64
	for i, name := range names {
		raw[i] = tensor.CloneVec(embeddings[name])
		if mean == nil {
			mean = make([]float64, len(raw[i]))
		}
		tensor.AxpyInPlace(mean, raw[i], 1/float64(len(names)))
	}
	centered := make([][]float64, len(names))
	for i := range raw {
		centered[i] = tensor.SubVec(raw[i], mean)
	}

	e.mu.Lock()
	e.refNames, e.refRaw, e.refCentered, e.refMean = names, raw, centered, mean
	e.mu.Unlock()
}

// Confidence relates a workload to the campaign architectures: it returns
// the name of the most similar known architecture and the cosine
// similarity to it (centered on the reference set's mean, so dissimilar
// architectures score low). Low confidence warns that a prediction is an
// extrapolation — the paper's cosine-similarity machinery (§III-E) applied
// as a trust signal.
func (e *InferenceEngine) Confidence(g *graph.Graph) (string, float64, error) {
	emb, err := e.Embedding(g)
	if err != nil {
		return "", 0, err
	}
	e.mu.Lock()
	names, centered, mean := e.refNames, e.refCentered, e.refMean
	e.mu.Unlock()
	if len(names) == 0 {
		return "", 0, fmt.Errorf("core: engine has no reference embeddings (trained before SetReference?)")
	}
	centeredEmb := tensor.SubVec(emb, mean)
	bestName, bestSim := "", -2.0
	for i, name := range names {
		if sim := tensor.CosineSimilarity(centeredEmb, centered[i]); sim > bestSim {
			bestName, bestSim = name, sim
		}
	}
	return bestName, bestSim, nil
}
