package ghn

import (
	"fmt"

	"predictddl/internal/graph"
)

// topoInfo is everything about a graph's shape the GatedGNN traversal
// needs and that is independent of the network weights: the topological
// order and its reverse, the virtual shortest-path neighbor lists per
// direction (Eq. 4), and the terminal nodes for the readout. The fast path
// builds one per Embed — the engine's embedding cache sits above the GHN,
// so a graph whose topology could be reused never gets here (DESIGN.md
// §10) — and the tape path one per tapeGraph, which Train keeps for its
// whole run.
type topoInfo struct {
	order   []int
	rev     []int
	spFw    [][]spEdge
	spBw    [][]spEdge // nil when ForwardOnly (never traversed)
	termIn  int
	termOut int
}

// buildTopology computes gr's traversal structure.
func (g *GHN) buildTopology(gr *graph.Graph) (*topoInfo, error) {
	order, err := gr.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("ghn: %w", err)
	}
	n := gr.NumNodes()
	rev := make([]int, n)
	for i, v := range order {
		rev[n-1-i] = v
	}
	tp := &topoInfo{order: order, rev: rev, spFw: g.virtualNeighbors(gr, false)}
	if !g.cfg.ForwardOnly {
		tp.spBw = g.virtualNeighbors(gr, true)
	}
	tp.termIn, tp.termOut = terminalNodes(gr)
	return tp, nil
}
