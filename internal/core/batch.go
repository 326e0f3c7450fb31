package core

import (
	"fmt"
	"sync"

	"predictddl/internal/cluster"
	"predictddl/internal/costmodel"
	"predictddl/internal/dataset"
	"predictddl/internal/graph"
	"predictddl/internal/obs"
	"predictddl/internal/regress"
	"predictddl/internal/tensor"
)

// job is one prediction on its way through the three steps every route
// shares (DESIGN.md §17): resolve fixes the engine, the graph, its
// fingerprint and the cluster; embed fills emb; regress fills secs. A job
// whose err is set goes no further. code is the status the controller
// answers err with; zero means a server fault (500).
type job struct {
	engine *InferenceEngine
	g      *graph.Graph
	key    string // g.Fingerprint(); empty on analytic engines, which never embed
	cl     cluster.Cluster
	emb    []float64
	secs   float64
	err    error
	code   int
}

// newJob is the engine's half of resolve: Predict's checks in Predict's
// order — the graph, then the cluster — so a job that fails them is never
// embedded, then the fingerprint, through m so that a graph several jobs
// hold is hashed once.
func (e *InferenceEngine) newJob(g *graph.Graph, c cluster.Cluster, m *memo) job {
	j := job{engine: e, g: g, cl: c}
	if g == nil {
		j.err = fmt.Errorf("core: nil graph")
	} else if err := c.Validate(); err != nil {
		j.err = fmt.Errorf("core: features: %w", err)
	} else if e.embeds() {
		j.key = m.fingerprint(g)
	}
	return j
}

// embeds reports whether the engine's regressor consumes GHN embeddings;
// analytic backends (the roofline) never touch the GHN on the predict path.
func (e *InferenceEngine) embeds() bool { return e.kind != regress.FeatureAnalytic }

// price runs steps 2 and 3 on a resolved job: the embedding (a cache
// lookup, and on a miss the GHN pass m shares between a request's jobs),
// then the regression against the job's own cluster, with the positive
// floor. tr traces the embed, features and regress stages of a single
// predict; a batch passes nil.
func (j *job) price(m *memo, tr *obs.Trace) {
	if j.err != nil {
		return
	}
	var feats []float64
	if j.engine.embeds() {
		stop := tr.Stage("embed")
		j.emb, j.err = j.engine.embedding(j.g, j.key, m)
		stop()
		if j.err != nil {
			return
		}
		feats = tensor.Concat(j.emb, j.cl.Features())
	} else {
		// The feature row is a pure function of the graph's scalar stats
		// and the cluster descriptor.
		stop := tr.Stage("features")
		var err error
		feats, err = costmodel.AnalyticFeaturesFor(j.g, j.cl)
		stop()
		if err != nil {
			j.err = fmt.Errorf("core: features: %w", err)
			return
		}
	}
	j.secs, j.err = j.engine.regress(j.g, feats, tr)
}

// memo is what the jobs of one request share: the first job to name a zoo
// model on an engine builds it, the first to hold a graph hashes it, the
// first to miss the embedding cache on a fingerprint runs the GHN, and
// every other job of the request waits for that result instead of redoing
// it. It lives for one request; it is not a cache. A nil memo shares
// nothing (the single route).
type memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry //ddlvet:guardedby mu
}

// memoKey names one shared result: exactly one of model (a zoo build on
// engine), graph (a fingerprint) and fingerprint (a GHN pass on engine) is
// set.
type memoKey struct {
	engine      *InferenceEngine
	model       string
	graph       *graph.Graph
	fingerprint string
}

// memoEntry is one shared result; once guards the other fields.
type memoEntry struct {
	once sync.Once
	g    *graph.Graph // a zoo build
	key  string       // a fingerprint
	emb  []float64    // a GHN pass
	err  error
}

// share returns k's entry once fill has run on it; only the first caller
// of k runs fill, the others wait for it.
func (m *memo) share(k memoKey, fill func(*memoEntry)) *memoEntry {
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[memoKey]*memoEntry)
	}
	en, ok := m.entries[k]
	if !ok {
		en = new(memoEntry)
		m.entries[k] = en
	}
	m.mu.Unlock()
	en.once.Do(func() { fill(en) })
	return en
}

// build is the by-name half of resolve: buildArch, once per request.
func (m *memo) build(e *InferenceEngine, model string) (*graph.Graph, error) {
	if m == nil {
		return buildArch(e, model)
	}
	en := m.share(memoKey{engine: e, model: model}, func(en *memoEntry) { en.g, en.err = buildArch(e, model) })
	return en.g, en.err
}

// fingerprint is g.Fingerprint, once per request.
func (m *memo) fingerprint(g *graph.Graph) string {
	if m == nil {
		return g.Fingerprint()
	}
	return m.share(memoKey{graph: g}, func(en *memoEntry) { en.key = g.Fingerprint() }).key
}

// embed is the GHN pass over g, whose fingerprint is key, once per
// request.
func (m *memo) embed(e *InferenceEngine, g *graph.Graph, key string) ([]float64, error) {
	if m == nil {
		return e.ghn.Embed(g)
	}
	en := m.share(memoKey{engine: e, fingerprint: key}, func(en *memoEntry) { en.emb, en.err = e.ghn.Embed(g) })
	return en.emb, en.err
}

// buildArch builds a zoo model at its engine's dataset sample shape, as
// training and campaigns do. Engines may be registered under names
// dataset.Lookup does not know; those keep the zoo defaults.
func buildArch(e *InferenceEngine, model string) (*graph.Graph, error) {
	var gcfg graph.Config
	if ds, err := dataset.Lookup(e.Dataset()); err == nil {
		gcfg = ds.GraphConfig()
	}
	return graph.Build(model, gcfg)
}
