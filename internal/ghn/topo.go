package ghn

import (
	"fmt"

	"predictddl/internal/graph"
)

// topoCacheCap bounds the fingerprint-keyed topology cache. Entries are
// evicted in deterministic FIFO order, mirroring the engine's embedding
// cache policy (DESIGN.md §8): a stream of distinct custom graphs cannot
// exhaust memory, and eviction order never depends on map iteration.
const topoCacheCap = 128

// topoInfo is everything about a graph's shape the GatedGNN traversal
// needs and that is independent of the network weights: the topological
// order and its reverse, the virtual shortest-path neighbor lists per
// direction (Eq. 4), and the terminal nodes for the readout. The fast path
// computes it once per distinct graph content (topology); the tape path
// once per tapeGraph, which Train keeps for its whole run.
type topoInfo struct {
	order   []int
	rev     []int
	spFw    [][]spEdge
	spBw    [][]spEdge // nil when ForwardOnly (never traversed)
	termIn  int
	termOut int
}

// topology returns the traversal structure for gr, cached under the
// graph's content fingerprint. key must be gr.Fingerprint(); callers that
// already hashed the graph (the engine's content-addressed embedding
// cache) pass the key down so the graph is hashed once per request.
// Caching relies on the package-wide convention that graphs are immutable
// after Validate — the same convention the engine's embedding cache
// depends on.
func (g *GHN) topology(gr *graph.Graph, key string) (*topoInfo, error) {
	g.topoMu.Lock()
	cached, ok := g.topo[key]
	g.topoMu.Unlock()
	if ok {
		return cached, nil
	}

	// Compute outside the lock: concurrent misses on the same graph do
	// duplicate work, but never block each other behind an O(n²) BFS.
	tp, err := g.buildTopology(gr)
	if err != nil {
		return nil, err
	}

	g.topoMu.Lock()
	defer g.topoMu.Unlock()
	if existing, ok := g.topo[key]; ok {
		return existing, nil // a concurrent caller won the race
	}
	g.topo[key] = tp
	g.topoFIFO = append(g.topoFIFO, key)
	if len(g.topoFIFO) > topoCacheCap {
		delete(g.topo, g.topoFIFO[0])
		g.topoFIFO = g.topoFIFO[1:]
	}
	return tp, nil
}

// buildTopology computes gr's traversal structure, uncached.
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

// topoCacheLen reports the number of cached topologies (tests).
func (g *GHN) topoCacheLen() int {
	g.topoMu.Lock()
	defer g.topoMu.Unlock()
	return len(g.topo)
}
