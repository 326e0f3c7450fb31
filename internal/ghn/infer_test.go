package ghn

import (
	"testing"

	"predictddl/internal/graph"
	"predictddl/internal/tensor"
)

// equivalenceCorpus is the seeded graph set the fast path is checked
// against: zoo families with different topology shapes (plain chains,
// residual skips, branchy cells) plus random DARTS-style graphs.
func equivalenceCorpus(t *testing.T) []*graph.Graph {
	t.Helper()
	var out []*graph.Graph
	for _, name := range []string{"squeezenet1_1", "resnet18", "mobilenet_v3_small", "vgg11"} {
		out = append(out, graph.MustBuild(name, graph.DefaultConfig()))
	}
	rng := tensor.NewRNG(99)
	for i := 0; i < 4; i++ {
		out = append(out, graph.RandomGraph(rng, graph.DefaultConfig()))
	}
	return out
}

// The fast path must reproduce the tape path bit-for-bit on every
// corpus graph, across every config axis that changes the traversal
// (virtual edges, normalization, direction, passes, odd hidden sizes).
func TestFastPathMatchesTapePathBitwise(t *testing.T) {
	configs := map[string]Config{
		"default":      DefaultConfig(),
		"forward-only": {HiddenDim: 32, VirtualEdges: true, MaxShortestPath: 5, Normalize: true, ForwardOnly: true},
		"no-virtual":   {HiddenDim: 32, Normalize: true},
		"no-normalize": {HiddenDim: 32, VirtualEdges: true, MaxShortestPath: 5},
		"two-passes":   {HiddenDim: 32, Passes: 2, VirtualEdges: true, MaxShortestPath: 5, Normalize: true},
		"odd-dims":     {HiddenDim: 17, EmbedDim: 9, VirtualEdges: true, MaxShortestPath: 5, Normalize: true},
	}
	corpus := equivalenceCorpus(t)
	for name, cfg := range configs {
		g := New(cfg, tensor.NewRNG(7))
		for _, gr := range corpus {
			want, err := g.EmbedReference(gr)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", name, gr.Name, err)
			}
			got, err := g.Embed(gr)
			if err != nil {
				t.Fatalf("%s/%s: fast: %v", name, gr.Name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: element %d differs: fast %v vs tape %v",
						name, gr.Name, i, got[i], want[i])
				}
			}
			// Second call runs on a pooled arena the first one dirtied; it
			// must still match exactly.
			again, err := g.Embed(gr)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if again[i] != want[i] {
					t.Fatalf("%s/%s: warmed call diverged at %d", name, gr.Name, i)
				}
			}
		}
	}
}

// Equivalence must also hold on trained weights (the serving scenario):
// the fast path reads live parameter storage, so training updates are
// visible to it with no snapshot staleness.
func TestFastPathMatchesTapePathAfterTraining(t *testing.T) {
	g, _, err := Train(Config{HiddenDim: 16}, TrainConfig{Graphs: 12, Epochs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"resnet18", "squeezenet1_1"} {
		gr := graph.MustBuild(name, graph.DefaultConfig())
		want, err := g.EmbedReference(gr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Embed(gr)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: trained element %d differs: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
}

// The traversal itself must allocate nothing but the result slice: embedOn
// over a built topology, on a pooled arena. Serving never reaches a "warm"
// GHN — the engine's embedding cache answers every repeat above it — so the
// whole-call numbers below are cold ones, and both sides of the ≥10x
// comparison against the tape path build the topology.
func TestEmbedAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc bounds only hold without it")
	}
	g := New(DefaultConfig(), tensor.NewRNG(1))
	gr := smallGraph(t)
	tp, err := g.buildTopology(gr)
	if err != nil {
		t.Fatal(err)
	}
	g.embedOn(gr, tp) // size a pooled arena

	traversal := testing.AllocsPerRun(200, func() { g.embedOn(gr, tp) })
	if traversal > 2 {
		t.Fatalf("embedOn over a built topology allocates %v per run, want <= 2 (result slice only)", traversal)
	}

	allocs := func(embed func(*graph.Graph) ([]float64, error)) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := embed(gr); err != nil {
				t.Fatal(err)
			}
		})
	}
	// With virtual edges the shortest-path tables dominate both paths
	// (ROADMAP item 1), so compare what each allocates on top of them.
	topo := testing.AllocsPerRun(20, func() {
		if _, err := g.buildTopology(gr); err != nil {
			t.Fatal(err)
		}
	})
	embed, ref := allocs(g.Embed), allocs(g.EmbedReference)
	if ref-topo < 10*(embed-topo) {
		t.Fatalf("beyond the %v-alloc topology the tape path allocates %v per run vs fast path %v — want >= 10x reduction",
			topo, ref-topo, embed-topo)
	}

	// At the configuration every served predictor is trained with (no
	// virtual edges) the topology is a handful of tables and the whole cold
	// call holds the bound.
	serving := New(Config{}, tensor.NewRNG(1))
	embed, ref = allocs(serving.Embed), allocs(serving.EmbedReference)
	if embed > 10 {
		t.Fatalf("cold Embed allocates %v per run, want <= 10 (result + traversal tables)", embed)
	}
	if ref < 10*embed {
		t.Fatalf("tape path allocates %v per run vs fast path %v — want >= 10x reduction", ref, embed)
	}
}

// A warmed training worker's gradStep — arena reset, forward, loss,
// backward over one graph — must not allocate: every vector comes from the
// step arena and every tape table is reused. The parent commit allocated
// about 7,800 times per step at this scale.
func TestGradStepAllocRegression(t *testing.T) {
	w, tgs := benchWorker(t, 4)
	for i := 0; i < 3; i++ { // the arena settles at the largest graph within a few passes
		for _, tg := range tgs {
			w.gradStep(tg)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(20, func() {
		w.gradStep(tgs[next%len(tgs)])
		next++
	})
	if allocs > 0 {
		t.Fatalf("warmed gradStep allocates %v per run, want 0", allocs)
	}
}

func TestEmbedKeyedRejectsUnknownPrecision(t *testing.T) {
	g := New(DefaultConfig(), tensor.NewRNG(1))
	gr := smallGraph(t)
	if _, err := g.EmbedKeyed(gr, gr.Fingerprint(), Precision(7)); err == nil {
		t.Fatal("unknown precision accepted")
	}
}

// Concurrent embeds share the arena pool; under the race detector this
// doubles as a safety check, and results must match the serial ones
// exactly.
func TestEmbedConcurrentPoolSafety(t *testing.T) {
	g := New(DefaultConfig(), tensor.NewRNG(1))
	corpus := equivalenceCorpus(t)
	want := make([][]float64, len(corpus))
	for i, gr := range corpus {
		e, err := g.Embed(gr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = e
	}
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i, gr := range corpus {
				e, err := g.Embed(gr)
				if err != nil {
					errs <- err
					return
				}
				for j := range e {
					if e[j] != want[i][j] {
						errs <- errMismatch
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errFrom("concurrent embed diverged from serial result")

type errFrom string

func (e errFrom) Error() string { return string(e) }
