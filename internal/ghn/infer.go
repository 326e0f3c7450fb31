// Inference fast path: a tape-free re-implementation of the GatedGNN
// forward traversal for serving. The tape path (forward/sweep in ghn.go)
// records a backprop tape — per-edge MLPCaches, per-update GRUCaches,
// message vectors — that only Train needs. This path writes into pooled
// scratch arenas and fuses the N one-hot embedding Forward calls into a
// strided gather, so beyond the graph's traversal structure (topo.go) an
// Embed allocates nothing but the result slice.
//
// It reads the live parameters, runs the same nn/tensor kernels as the
// tape path and is bit-identical to it (the floatorder determinism
// contract), which EmbedReference keeps as the test oracle. Scratch-arena
// ownership rule: no pooled buffer escapes Embed — results are copied into
// fresh slices before the arena returns to the pool.
package ghn

import (
	"fmt"
	"math"

	"predictddl/internal/graph"
	"predictddl/internal/nn"
)

// Precision is a one-value shim: float64 is the only inference precision
// (DESIGN.md §10, "Removed: float32 route"). The type, its constant and
// EmbedKeyed stay only because bench/trace.go, which is frozen between
// benchmark PRs, calls EmbedKeyed(g, fp, ghn.Float64).
type Precision uint8

// Float64 is the only precision; see Precision.
const Float64 Precision = 0

// inferScratch is one pooled arena holding every intermediate an embed
// needs: the flat node-state matrix plus fixed-size gate/message/readout
// buffers. Arenas are owned by the pool; embedFast results are copied out
// before the arena is returned.
type inferScratch struct {
	h       []float64 // n x d node states, grown to the largest graph seen
	raw     []float64 // d: aggregated message before gain
	m       []float64 // d: gain-scaled message (GRU input)
	msgOut  []float64 // d: one neighbor's MLP output
	tmp1    []float64 // MLP ping-pong scratch
	tmp2    []float64
	hNew    []float64 // d: GRU output before write-back
	gru     *nn.GRUScratch
	readout []float64 // 3d
	out     []float64 // EmbedDim
}

func newInferScratch(d, embedDim int) *inferScratch {
	return &inferScratch{
		raw:     make([]float64, d),
		m:       make([]float64, d),
		msgOut:  make([]float64, d),
		tmp1:    make([]float64, d),
		tmp2:    make([]float64, d),
		hNew:    make([]float64, d),
		gru:     nn.NewGRUScratch(d),
		readout: make([]float64, 3*d),
		out:     make([]float64, embedDim),
	}
}

// ensureNodes grows the node-state arena to hold n nodes of dimension d.
func (sc *inferScratch) ensureNodes(n, d int) {
	if cap(sc.h) < n*d {
		sc.h = make([]float64, n*d)
	}
	sc.h = sc.h[:n*d]
}

// EmbedKeyed is Embed behind the signature bench/trace.go compiles against
// (see Precision): key is ignored — the GHN keeps nothing keyed by it any
// more — and p must be Float64. Drop it with Precision in the next
// benchmark PR; new callers use Embed.
func (g *GHN) EmbedKeyed(gr *graph.Graph, key string, p Precision) ([]float64, error) {
	if p != Float64 {
		return nil, fmt.Errorf("ghn: unknown precision %d", p)
	}
	return g.Embed(gr)
}

// embedOn embeds gr over its built topology on a pooled arena, copying the
// result out before the arena goes back (the ownership rule above).
func (g *GHN) embedOn(gr *graph.Graph, tp *topoInfo) []float64 {
	sc := g.pool.Get().(*inferScratch)
	res := g.embedFast(sc, gr, tp)
	out := make([]float64, len(res))
	copy(out, res)
	g.pool.Put(sc)
	return out
}

// embedFast runs the full tape-free embed on one scratch arena and returns
// the arena-owned result slice; the caller copies it out before returning
// the arena to the pool.
func (g *GHN) embedFast(sc *inferScratch, gr *graph.Graph, tp *topoInfo) []float64 {
	d := g.cfg.HiddenDim
	n := gr.NumNodes()
	sc.ensureNodes(n, d)

	// Fused embedding gather: node features are a one-hot op plus two
	// scalar descriptors, so W·f+b collapses to three strided column reads
	// per output element instead of a NodeFeatureDim-wide dot product. The
	// contribution order (op column, channel column, spatial column, bias)
	// matches the ascending-index order of Linear.Forward's dot product,
	// so the result stays bit-identical to the tape path.
	in := NodeFeatureDim
	chIdx, hwIdx := graph.NumOpTypes, graph.NumOpTypes+1
	w, bias := g.embed.Weight.W.Data(), g.embed.Bias.W.Row(0)
	for v, node := range gr.Nodes {
		fch := math.Log1p(float64(node.OutChannels)) / 10
		fhw := math.Log1p(float64(node.OutH*node.OutW)) / 10
		op := int(node.Op)
		hrow := sc.h[v*d : (v+1)*d]
		for j := 0; j < d; j++ {
			wrow := w[j*in : (j+1)*in]
			hrow[j] = wrow[op] + fch*wrow[chIdx] + fhw*wrow[hwIdx] + bias[j]
		}
	}

	for t := 0; t < g.cfg.Passes; t++ {
		g.sweepFast(sc, gr, tp.order, false, tp.spFw)
		if !g.cfg.ForwardOnly {
			g.sweepFast(sc, gr, tp.rev, true, tp.spBw)
		}
	}

	// Readout [meanPool ‖ h_input ‖ h_output], then the projection head.
	mp := sc.readout[:d]
	clear(mp)
	for v := 0; v < n; v++ {
		hrow := sc.h[v*d : (v+1)*d]
		for i, x := range hrow {
			mp[i] += x
		}
	}
	inv := 1 / float64(n)
	for i := range mp {
		mp[i] *= inv
	}
	copy(sc.readout[d:2*d], sc.h[tp.termIn*d:(tp.termIn+1)*d])
	copy(sc.readout[2*d:3*d], sc.h[tp.termOut*d:(tp.termOut+1)*d])
	g.proj.InferInto(sc.out, sc.readout)
	return sc.out
}

// sweepFast is the tape-free counterpart of sweep: one directed traversal
// updating node states in place, arithmetic-identical to the tape path
// (same aggregation order, same mean/gain scaling, same GRU association).
func (g *GHN) sweepFast(sc *inferScratch, gr *graph.Graph, order []int, reverse bool, sp [][]spEdge) {
	d := g.cfg.HiddenDim
	msg, msgSp := g.msgFw, g.msgSpFw
	if reverse {
		msg, msgSp = g.msgBw, g.msgSpBw
	}
	for _, v := range order {
		var nbrs []int
		if reverse {
			nbrs = gr.OutNeighbors(v)
		} else {
			nbrs = gr.InNeighbors(v)
		}
		var sps []spEdge
		if sp != nil {
			sps = sp[v]
		}
		count := len(nbrs) + len(sps)
		if count == 0 {
			continue // sources in this direction receive no message
		}
		raw := sc.raw
		clear(raw)
		for _, u := range nbrs {
			msg.InferInto(sc.msgOut, sc.h[u*d:(u+1)*d], sc.tmp1, sc.tmp2)
			for i, x := range sc.msgOut {
				raw[i] += x
			}
		}
		for _, e := range sps {
			msgSp.InferInto(sc.msgOut, sc.h[e.u*d:(e.u+1)*d], sc.tmp1, sc.tmp2)
			s := 1 / e.s
			for i, x := range sc.msgOut {
				raw[i] += s * x
			}
		}
		inv := 1 / float64(count)
		for i := range raw {
			raw[i] *= inv
		}
		gain := g.gainRow(gr.Nodes[v].Op)
		for i := range sc.m {
			sc.m[i] = gain[i] * raw[i]
		}
		hrow := sc.h[v*d : (v+1)*d]
		g.gru.InferInto(sc.hNew, sc.m, hrow, sc.gru)
		copy(hrow, sc.hNew)
	}
}
