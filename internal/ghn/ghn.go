// Package ghn implements GHN-2 (Knyazev et al., "Parameter Prediction for
// Unseen Deep Architectures", NeurIPS'21), the graph hypernetwork whose
// intermediate representations PredictDDL uses as DNN embeddings (§III-E).
//
// The network follows the paper's three modules:
//
//  1. an embedding layer mapping per-node features (one-hot operation plus
//     shape descriptors) to d-dimensional states H¹;
//  2. a GatedGNN that mimics the forward and backward passes of DNN
//     training as graph traversals (Eq. 3), extended with GHN-2's virtual
//     shortest-path edges weighted 1/s (Eq. 4) and operation-dependent
//     normalization of aggregated messages;
//  3. a decoder conditioned on the final node states.
//
// PredictDDL skips the weight-producing decoder and mean-pools the final
// node states into a fixed-size architecture embedding. Because the
// original GHN-2 objective (predicting the parameters of CIFAR-10
// classifiers) is not reproducible without GPUs, this implementation trains
// the identical message-passing network on a complexity proxy: the decoder
// predicts each node's parameter/FLOP footprint from operation type and
// topology, and a graph-level head predicts aggregate complexity and
// operation mix. See DESIGN.md for why this preserves the embedding
// property the paper relies on.
package ghn

import (
	"math"
	"sync"
	"sync/atomic"

	"predictddl/internal/graph"
	"predictddl/internal/nn"
	"predictddl/internal/tensor"
)

// NodeFeatureDim is the per-node input dimensionality: one-hot operation
// plus log-scaled channel and spatial extents.
const NodeFeatureDim = graph.NumOpTypes + 2

// NodeTargetDim is the decoder's per-node output: log-scaled parameter and
// FLOP counts.
const NodeTargetDim = 2

// GraphTargetDim is the graph-level head's output: log nodes, log params,
// log FLOPs, depth ratio, depthwise-FLOP fraction, dense-FLOP fraction.
const GraphTargetDim = 6

// Config shapes a GHN.
type Config struct {
	// HiddenDim is d, the node-state dimensionality. Defaults to 32.
	HiddenDim int
	// EmbedDim is the dimensionality of the architecture embedding the
	// projection head produces (paper: a fixed-size vector, e.g. 32).
	// Defaults to 32.
	EmbedDim int
	// Passes is T, the number of forward+backward traversal rounds.
	// Defaults to 1.
	Passes int
	// VirtualEdges enables GHN-2's shortest-path messages (Eq. 4);
	// disabling them recovers GHN-1 message passing (Eq. 3).
	VirtualEdges bool
	// MaxShortestPath is s^(max), the virtual-edge cutoff. Defaults to 5.
	MaxShortestPath int
	// Normalize enables operation-dependent message normalization.
	Normalize bool
	// ForwardOnly restricts the GatedGNN to forward traversals, dropping
	// the backward pass of Eq. 3 — an ablation knob; the paper's model
	// always runs both.
	ForwardOnly bool
}

// DefaultConfig returns the GHN-2 configuration used by PredictDDL.
func DefaultConfig() Config {
	return Config{HiddenDim: 32, Passes: 1, VirtualEdges: true, MaxShortestPath: 5, Normalize: true}
}

func (c Config) withDefaults() Config {
	if c.HiddenDim <= 0 {
		c.HiddenDim = 32
	}
	if c.EmbedDim <= 0 {
		c.EmbedDim = 32
	}
	if c.Passes <= 0 {
		c.Passes = 1
	}
	if c.MaxShortestPath <= 0 {
		c.MaxShortestPath = 5
	}
	return c
}

// GHN is a trained (or trainable) graph hypernetwork. All methods are safe
// for concurrent use once training has finished; Forward/Backward pairs
// must not run concurrently with each other.
type GHN struct {
	cfg Config

	embed     *nn.Linear  // node features → d
	msgFw     *nn.MLP     // MLP of Eq. 3, forward direction
	msgBw     *nn.MLP     // MLP of Eq. 3, backward direction
	msgSpFw   *nn.MLP     // MLP_sp of Eq. 4, forward direction
	msgSpBw   *nn.MLP     // MLP_sp of Eq. 4, backward direction
	gru       *nn.GRUCell // node-state update
	opGain    *nn.Param   // NumOpTypes x d operation-dependent message gain
	proj      *nn.Linear  // readout (3d) → fixed-size embedding
	decoder   *nn.MLP     // per-node head (proxy targets)
	graphHead *nn.MLP     // graph-level head (proxy targets)

	// ones is the neutral gain vector gainRow hands out when Normalize is
	// disabled — computed once here instead of allocated per node update.
	// Callers must treat it as read-only.
	ones []float64

	// pool holds the inference fast path's scratch arenas (infer.go).
	pool sync.Pool

	// metrics holds optional observability hooks (nil when uninstrumented);
	// the hot path pays one atomic load to check.
	metrics atomic.Pointer[Metrics]
}

// New returns a freshly initialized GHN.
func New(cfg Config, rng *tensor.RNG) *GHN {
	cfg = cfg.withDefaults()
	d := cfg.HiddenDim
	g := &GHN{
		cfg:       cfg,
		embed:     nn.NewLinear("ghn.embed", NodeFeatureDim, d, rng),
		msgFw:     nn.NewMLP("ghn.msg_fw", []int{d, d, d}, nn.ReLU, nn.Identity, rng),
		msgBw:     nn.NewMLP("ghn.msg_bw", []int{d, d, d}, nn.ReLU, nn.Identity, rng),
		msgSpFw:   nn.NewMLP("ghn.sp_fw", []int{d, d}, nn.ReLU, nn.Identity, rng),
		msgSpBw:   nn.NewMLP("ghn.sp_bw", []int{d, d}, nn.ReLU, nn.Identity, rng),
		gru:       nn.NewGRUCell("ghn.gru", d, d, rng),
		opGain:    nn.NewParam("ghn.op_gain", graph.NumOpTypes, d),
		proj:      nn.NewLinear("ghn.proj", 3*d, cfg.EmbedDim, rng),
		decoder:   nn.NewMLP("ghn.decoder", []int{d, d, NodeTargetDim}, nn.ReLU, nn.Identity, rng),
		graphHead: nn.NewMLP("ghn.graph_head", []int{cfg.EmbedDim, d, GraphTargetDim}, nn.ReLU, nn.Identity, rng),
	}
	g.opGain.W.Fill(1) // neutral gain at init
	g.ones = make([]float64, d)
	for i := range g.ones {
		g.ones[i] = 1
	}
	g.pool.New = func() any { return newInferScratch(d, cfg.EmbedDim) }
	return g
}

// EmbeddingDim returns the dimensionality of Embed's output.
func (g *GHN) EmbeddingDim() int { return g.cfg.EmbedDim }

// Params returns every learnable parameter.
func (g *GHN) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, g.embed.Params()...)
	ps = append(ps, g.msgFw.Params()...)
	ps = append(ps, g.msgBw.Params()...)
	ps = append(ps, g.msgSpFw.Params()...)
	ps = append(ps, g.msgSpBw.Params()...)
	ps = append(ps, g.gru.Params()...)
	ps = append(ps, g.opGain)
	ps = append(ps, g.proj.Params()...)
	ps = append(ps, g.decoder.Params()...)
	ps = append(ps, g.graphHead.Params()...)
	return ps
}

// nodeFeatures builds the H₀ row for one node: one-hot op, log channels,
// log spatial extent.
func nodeFeatures(n *graph.Node) []float64 {
	f := make([]float64, NodeFeatureDim)
	n.Op.OneHot(f[:graph.NumOpTypes])
	f[graph.NumOpTypes] = math.Log1p(float64(n.OutChannels)) / 10
	f[graph.NumOpTypes+1] = math.Log1p(float64(n.OutH*n.OutW)) / 10
	return f
}

// virtualNeighbors returns, for each node, the (neighbor, distance) pairs
// with 1 < s ≤ s^(max) along the given direction.
type spEdge struct {
	u int
	s float64
}

func (g *GHN) virtualNeighbors(gr *graph.Graph, reverse bool) [][]spEdge {
	out := make([][]spEdge, gr.NumNodes())
	if !g.cfg.VirtualEdges {
		return out
	}
	for v := 0; v < gr.NumNodes(); v++ {
		// Distances measured from v along the *incoming* direction: for
		// the forward pass, message sources are predecessors, i.e. nodes
		// reached by walking reverse edges from v.
		dist := gr.ShortestPathsFrom(v, !reverse)
		for u, s := range dist {
			if s > 1 && s <= g.cfg.MaxShortestPath {
				out[v] = append(out[v], spEdge{u: u, s: float64(s)})
			}
		}
	}
	return out
}

// tapeGraph is one graph prepared for the tape path: everything forward,
// backward and the proxy loss read that does not depend on the weights.
// Train builds one per sampled architecture, once, instead of re-deriving
// the traversal order, the virtual-edge BFS tables, the one-hot feature
// rows and the targets on every step of every epoch.
type tapeGraph struct {
	gr       *graph.Graph
	tp       *topoInfo
	features [][]float64 // H₀ rows, the embedding layer's inputs
	// Proxy supervision (train.go); nil when built by newTapeGraph alone.
	nodeT  [][]float64
	graphT []float64
}

// newTapeGraph computes gr's traversal structure and node features.
func (g *GHN) newTapeGraph(gr *graph.Graph) (*tapeGraph, error) {
	tp, err := g.buildTopology(gr)
	if err != nil {
		return nil, err
	}
	tg := &tapeGraph{gr: gr, tp: tp, features: make([][]float64, gr.NumNodes())}
	for i, node := range gr.Nodes {
		tg.features[i] = nodeFeatures(node)
	}
	return tg, nil
}

// forwardState carries one full traversal's intermediate values for
// backpropagation. A training worker reuses one forwardState for every
// step: forward truncates the tables below and refills them, and every
// float vector they point to comes from arena, which gradStep resets. With
// a zero forwardState (nil arena) everything lives on the heap.
//
// Arena ownership rule: nothing reachable from a forwardState outlives the
// step. gradStep leaves the step's only products — the loss and the
// parameter gradients — outside it.
type forwardState struct {
	arena  *nn.Arena
	tg     *tapeGraph
	h      [][]float64   // current node states
	tape   []nodeUpdate  // one entry per GRU update, in execution order
	caches []nn.MLPCache // message-MLP caches, in execution order
	// backward's and gradStep's per-node gradient tables, kept for reuse.
	gbuf, gradNodes [][]float64
}

// rows returns buf resized to n stale entries, reallocating only to grow.
func rows(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		return make([][]float64, n)
	}
	return buf[:n]
}

// nodeUpdate records one GRU state update for the backward pass.
type nodeUpdate struct {
	v      int
	op     graph.OpType
	dirMsg *nn.MLP // message MLP used (fw or bw)
	dirSp  *nn.MLP
	nbrs   []int    // direct message sources, owned by the graph
	spNbrs []spEdge // virtual-edge sources, owned by the topoInfo
	// caches is the first of this update's len(nbrs)+len(spNbrs) entries
	// in forwardState.caches: direct neighbors, then virtual ones.
	caches   int
	inv      float64   // mean-aggregation factor
	raw      []float64 // aggregated message before gain
	gruCache nn.GRUCache
}

// forward runs the GatedGNN over tg, leaving the tape backward needs in st.
func (g *GHN) forward(st *forwardState, tg *tapeGraph) {
	st.tg = tg
	st.h = rows(st.h, len(tg.features))
	st.tape, st.caches = st.tape[:0], st.caches[:0]
	for i, f := range tg.features {
		st.h[i] = g.embed.Forward(st.arena, f)
	}
	for t := 0; t < g.cfg.Passes; t++ {
		g.sweep(st, tg.tp.order, false, tg.tp.spFw)
		if !g.cfg.ForwardOnly {
			g.sweep(st, tg.tp.rev, true, tg.tp.spBw)
		}
	}
}

// sweep performs one directed traversal, updating node states in place and
// appending tape entries.
func (g *GHN) sweep(st *forwardState, order []int, reverse bool, sp [][]spEdge) {
	d := g.cfg.HiddenDim
	a, gr := st.arena, st.tg.gr
	msg, msgSp := g.msgFw, g.msgSpFw
	if reverse {
		msg, msgSp = g.msgBw, g.msgSpBw
	}
	for _, v := range order {
		nbrs := gr.InNeighbors(v)
		if reverse {
			nbrs = gr.OutNeighbors(v)
		}
		count := len(nbrs) + len(sp[v])
		if count == 0 {
			continue // sources in this direction receive no message
		}
		up := nodeUpdate{
			v: v, op: gr.Nodes[v].Op, dirMsg: msg, dirSp: msgSp,
			nbrs: nbrs, spNbrs: sp[v], caches: len(st.caches),
			inv: 1 / float64(count), raw: a.Floats(d),
		}
		raw := up.raw
		for _, u := range nbrs {
			out, cache := msg.Forward(a, st.h[u])
			tensor.AxpyInPlace(raw, out, 1)
			st.caches = append(st.caches, cache)
		}
		for _, e := range sp[v] {
			out, cache := msgSp.Forward(a, st.h[e.u])
			tensor.AxpyInPlace(raw, out, 1/e.s)
			st.caches = append(st.caches, cache)
		}
		for i := range raw {
			raw[i] *= up.inv
		}
		// Operation-dependent normalization: per-op learned gain.
		m := a.Floats(d)
		gain := g.gainRow(up.op)
		for i := range m {
			m[i] = gain[i] * raw[i]
		}
		st.h[v], up.gruCache = g.gru.Forward(a, m, st.h[v])
		st.tape = append(st.tape, up)
	}
}

// gainRow returns the gain vector for an op; when normalization is
// disabled it is the shared all-ones vector built at construction. The
// returned slice is read-only.
func (g *GHN) gainRow(op graph.OpType) []float64 {
	if !g.cfg.Normalize {
		return g.ones
	}
	return g.opGain.W.Row(int(op))
}

// Embed returns the fixed-size architecture embedding (inference only, no
// gradients): a learned projection of the readout — the mean of the final
// node states concatenated with the input and output nodes' terminal
// states. Mean pooling captures the operation mix but normalizes out
// network size; the terminal states — accumulated by the GatedGNN's
// sequential traversal, like an RNN's final hidden state — retain depth
// and total-complexity information, which the training-time predictor
// needs to separate e.g. ResNet-50 from ResNet-101. The projection keeps
// the embedding at the paper's fixed dimensionality (e.g. 32).
//
// Embed runs the tape-free fast path (infer.go), which is bit-identical to
// the training forward pass; EmbedReference keeps the original
// tape-building route as the equivalence oracle.
func (g *GHN) Embed(gr *graph.Graph) ([]float64, error) {
	if m := g.metrics.Load(); m != nil && m.EmbedSeconds != nil {
		defer m.EmbedSeconds.Time(m.clock())()
	}
	tp, err := g.buildTopology(gr)
	if err != nil {
		return nil, err
	}
	return g.embedOn(gr, tp), nil
}

// EmbedReference computes the embedding through the training forward pass
// — building the full backprop tape and discarding it. It is the reference
// implementation the fast path is tested against (bit-identical) and the
// baseline the embed benchmarks compare to; serving callers should use
// Embed.
func (g *GHN) EmbedReference(gr *graph.Graph) ([]float64, error) {
	tg, err := g.newTapeGraph(gr)
	if err != nil {
		return nil, err
	}
	var st forwardState
	g.forward(&st, tg)
	return g.proj.Forward(nil, g.readout(&st)), nil
}

// readout assembles the pre-projection summary from a completed forward
// pass: [meanPool ‖ h_input ‖ h_output], length 3d.
func (g *GHN) readout(st *forwardState) []float64 {
	d := g.cfg.HiddenDim
	out := st.arena.Floats(3 * d)
	mp := out[:d]
	for _, row := range st.h {
		tensor.AxpyInPlace(mp, row, 1)
	}
	inv := 1 / float64(len(st.h))
	for i := range mp {
		mp[i] *= inv
	}
	copy(out[d:2*d], st.h[st.tg.tp.termIn])
	copy(out[2*d:], st.h[st.tg.tp.termOut])
	return out
}

// terminalNodes locates the input and output nodes (falling back to the
// first/last node for non-standard graphs).
func terminalNodes(gr *graph.Graph) (in, out int) {
	in, out = 0, gr.NumNodes()-1
	for _, n := range gr.Nodes {
		switch n.Op {
		case graph.OpInput:
			in = n.ID
		case graph.OpOutput:
			out = n.ID
		}
	}
	return in, out
}
