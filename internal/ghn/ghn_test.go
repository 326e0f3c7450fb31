package ghn

import (
	"bytes"
	"math"
	"testing"

	"predictddl/internal/graph"
	"predictddl/internal/nn"
	"predictddl/internal/tensor"
)

func smallGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Build("squeezenet1_1", graph.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEmbedShapeAndDeterminism(t *testing.T) {
	g := New(DefaultConfig(), tensor.NewRNG(1))
	gr := smallGraph(t)
	e1, err := g.Embed(gr)
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != 32 {
		t.Fatalf("embedding dim = %d, want 32", len(e1))
	}
	e2, err := g.Embed(gr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("embedding not deterministic")
		}
	}
	for _, v := range e1 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("embedding contains non-finite values")
		}
	}
}

func TestEmbedDistinguishesArchitectures(t *testing.T) {
	g := New(DefaultConfig(), tensor.NewRNG(1))
	a, _ := g.Embed(graph.MustBuild("vgg16", graph.DefaultConfig()))
	b, _ := g.Embed(graph.MustBuild("mobilenet_v3_small", graph.DefaultConfig()))
	if tensor.EuclideanDistance(a, b) < 1e-9 {
		t.Fatal("distinct architectures produced identical embeddings")
	}
}

func TestConfigDefaults(t *testing.T) {
	g := New(Config{}, tensor.NewRNG(1))
	cfg := g.cfg
	if cfg.HiddenDim != 32 || cfg.Passes != 1 || cfg.MaxShortestPath != 5 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if g.EmbeddingDim() != 32 {
		t.Fatalf("EmbeddingDim = %d", g.EmbeddingDim())
	}
}

// Full-network gradient check: analytic grads through embed → GatedGNN
// (incl. virtual edges, gain, GRU) → decoder/graph head must match central
// differences on a tiny graph. This validates the entire tape machinery.
func TestGHNGradCheck(t *testing.T) {
	cfg := Config{HiddenDim: 6, Passes: 1, VirtualEdges: true, MaxShortestPath: 3, Normalize: true}
	rng := tensor.NewRNG(3)
	g := New(cfg, rng)
	// Perturb the gain so its gradient isn't trivially symmetric.
	for i := 0; i < g.opGain.W.Rows(); i++ {
		for j := 0; j < g.opGain.W.Cols(); j++ {
			g.opGain.W.Set(i, j, 1+0.1*rng.Normal(0, 1))
		}
	}

	// Tiny diamond DNN so finite differences stay cheap.
	gr := graph.New("tiny")
	in := gr.AddNode(&graph.Node{Op: graph.OpInput, OutChannels: 3, OutH: 4, OutW: 4})
	c1 := gr.AddNode(&graph.Node{Op: graph.OpConv, OutChannels: 8, OutH: 4, OutW: 4, Params: 216, FLOPs: 6912})
	r1 := gr.AddNode(&graph.Node{Op: graph.OpReLU, OutChannels: 8, OutH: 4, OutW: 4})
	b1 := gr.AddNode(&graph.Node{Op: graph.OpBatchNorm, OutChannels: 8, OutH: 4, OutW: 4, Params: 16, FLOPs: 256})
	ad := gr.AddNode(&graph.Node{Op: graph.OpAdd, OutChannels: 8, OutH: 4, OutW: 4})
	out := gr.AddNode(&graph.Node{Op: graph.OpOutput, OutChannels: 8, OutH: 4, OutW: 4})
	for _, e := range [][2]int{{in, c1}, {c1, r1}, {c1, b1}, {r1, ad}, {b1, ad}, {ad, out}} {
		if err := gr.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}

	params := g.Params()
	// loss evaluates the proxy loss without the tape: the finite-difference
	// side of the check.
	tg, err := g.newTrainGraph(gr)
	if err != nil {
		t.Fatal(err)
	}
	loss := func() float64 {
		var st forwardState
		g.forward(&st, tg)
		var total float64
		nodeWeight := 1 / float64(len(st.h))
		for v := range st.h {
			out, _ := g.decoder.Forward(nil, st.h[v])
			l, _ := nn.HuberLoss(nil, out, tg.nodeT[v], 1)
			total += l * nodeWeight
		}
		out, _ := g.graphHead.Forward(nil, g.proj.Forward(nil, g.readout(&st)))
		l, _ := nn.HuberLoss(nil, out, tg.graphT, 1)
		return total + l
	}

	// Analytic gradients via the same path gradStep uses (but no update),
	// on the heap: a zero forwardState has no arena.
	nn.ZeroGrads(params)
	st := &forwardState{}
	g.forward(st, tg)
	n := len(st.h)
	gradNodes := make([][]float64, n)
	w := 1 / float64(n)
	for v, node := range gr.Nodes {
		o, cache := g.decoder.Forward(nil, st.h[v])
		_, grad := nn.HuberLoss(nil, o, nodeTargets(node), 1)
		for i := range grad {
			grad[i] *= w
		}
		gradNodes[v] = g.decoder.Backward(nil, cache, grad)
	}
	readout := g.readout(st)
	emb := g.proj.Forward(nil, readout)
	o, cache := g.graphHead.Forward(nil, emb)
	_, grad := nn.HuberLoss(nil, o, graphTargets(gr), 1)
	gradEmb := g.graphHead.Backward(nil, cache, grad)
	g.backward(st, gradNodes, g.proj.Backward(nil, readout, gradEmb))

	const h = 1e-5
	checked := 0
	for _, p := range params {
		// Sample a few entries per tensor to keep the test fast.
		probe := tensor.NewRNG(int64(len(p.Name)))
		for k := 0; k < 3 && k < p.W.Rows()*p.W.Cols(); k++ {
			i := probe.Intn(p.W.Rows())
			j := probe.Intn(p.W.Cols())
			orig := p.W.At(i, j)
			p.W.Set(i, j, orig+h)
			lp := loss()
			p.W.Set(i, j, orig-h)
			lm := loss()
			p.W.Set(i, j, orig)
			want := (lp - lm) / (2 * h)
			got := p.Grad.At(i, j)
			if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d][%d] = %v, numerical %v", p.Name, i, j, got, want)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	cfg := Config{HiddenDim: 16}
	g, report, err := Train(cfg, TrainConfig{Graphs: 24, Epochs: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if report.FinalLoss >= report.InitialLoss {
		t.Fatalf("loss did not decrease: %v → %v", report.InitialLoss, report.FinalLoss)
	}
	if report.FinalLoss > report.InitialLoss*0.8 {
		t.Fatalf("loss decrease too small: %v → %v", report.InitialLoss, report.FinalLoss)
	}
	// Trained GHN generalizes to unseen zoo graphs without NaNs.
	for _, name := range []string{"resnet18", "mobilenet_v2"} {
		e, err := g.Embed(graph.MustBuild(name, graph.DefaultConfig()))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range e {
			if math.IsNaN(v) {
				t.Fatalf("NaN in trained embedding for %s", name)
			}
		}
	}
}

// After training, the embedding space should respect architecture
// similarity: same-family variants sit closer (cosine) than cross-family
// pairs — the Fig. 5 property PredictDDL relies on.
func TestTrainedEmbeddingSimilarityStructure(t *testing.T) {
	g, _, err := Train(Config{HiddenDim: 24}, TrainConfig{Graphs: 48, Epochs: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := graph.DefaultConfig()
	emb := func(name string) []float64 {
		e, err := g.Embed(graph.MustBuild(name, cfg))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	vgg16 := emb("vgg16")
	vgg19 := emb("vgg19")
	mnet := emb("mobilenet_v3_small")
	sameFamily := tensor.CosineSimilarity(vgg16, vgg19)
	crossFamily := tensor.CosineSimilarity(vgg16, mnet)
	if sameFamily <= crossFamily {
		t.Fatalf("cos(vgg16,vgg19)=%v not above cos(vgg16,mobilenet_v3_small)=%v", sameFamily, crossFamily)
	}
}

func TestVirtualEdgesChangeEmbedding(t *testing.T) {
	rng := tensor.NewRNG(4)
	base := Config{HiddenDim: 16, VirtualEdges: true}
	gOn := New(base, rng)
	cfgOff := base
	cfgOff.VirtualEdges = false
	gOff := New(cfgOff, tensor.NewRNG(4)) // identical init
	gr := smallGraph(t)
	on, _ := gOn.Embed(gr)
	off, _ := gOff.Embed(gr)
	if tensor.EuclideanDistance(on, off) < 1e-12 {
		t.Fatal("virtual edges had no effect on the embedding")
	}
}

func TestMorePassesChangeEmbedding(t *testing.T) {
	one := New(Config{HiddenDim: 16, Passes: 1}, tensor.NewRNG(5))
	two := New(Config{HiddenDim: 16, Passes: 2}, tensor.NewRNG(5))
	gr := smallGraph(t)
	e1, _ := one.Embed(gr)
	e2, _ := two.Embed(gr)
	if tensor.EuclideanDistance(e1, e2) < 1e-12 {
		t.Fatal("extra pass had no effect")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g, _, err := Train(Config{HiddenDim: 12}, TrainConfig{Graphs: 8, Epochs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gr := smallGraph(t)
	a, _ := g.Embed(gr)
	b, _ := g2.Embed(gr)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loaded network embeds differently")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not a checkpoint")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestEmbedRejectsCyclicGraph(t *testing.T) {
	g := New(Config{HiddenDim: 8}, tensor.NewRNG(8))
	bad := graph.New("cycle")
	a := bad.AddNode(&graph.Node{Op: graph.OpConv})
	b := bad.AddNode(&graph.Node{Op: graph.OpConv})
	_ = bad.AddEdge(a, b)
	_ = bad.AddEdge(b, a)
	if _, err := g.Embed(bad); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestNodeFeaturesEncodeOpAndShape(t *testing.T) {
	n := &graph.Node{Op: graph.OpConv, OutChannels: 64, OutH: 8, OutW: 8}
	f := nodeFeatures(n)
	if len(f) != NodeFeatureDim {
		t.Fatalf("feature dim = %d, want %d", len(f), NodeFeatureDim)
	}
	if f[graph.OpConv] != 1 {
		t.Fatal("one-hot op missing")
	}
	if f[graph.NumOpTypes] <= 0 || f[graph.NumOpTypes+1] <= 0 {
		t.Fatal("shape features missing")
	}
}

func TestGraphTargetsRanges(t *testing.T) {
	tg := graphTargets(graph.MustBuild("mobilenet_v3_large", graph.DefaultConfig()))
	if len(tg) != GraphTargetDim {
		t.Fatalf("target dim = %d", len(tg))
	}
	dwFrac := tg[4]
	if dwFrac <= 0 || dwFrac > 1 {
		t.Fatalf("depthwise fraction = %v for mobilenet", dwFrac)
	}
	tgVGG := graphTargets(graph.MustBuild("vgg16", graph.DefaultConfig()))
	if tgVGG[4] != 0 {
		t.Fatalf("vgg16 depthwise fraction = %v, want 0", tgVGG[4])
	}
}
