package graph

import (
	"fmt"
	"math"
)

// NodeSpec is the wire representation of one node.
type NodeSpec struct {
	// Op is the operation mnemonic ("conv", "bn", "relu", …).
	Op string `json:"op"`
	// Label is the optional human-readable description.
	Label string `json:"label,omitempty"`
	// OutChannels/OutH/OutW describe the output tensor shape.
	OutChannels int `json:"out_channels"`
	OutH        int `json:"out_h"`
	OutW        int `json:"out_w"`
	// Params and FLOPs are the node's cost annotations.
	Params int64 `json:"params"`
	FLOPs  int64 `json:"flops"`
}

// Spec is the wire representation of a computational graph, used to submit
// custom (non-zoo) DNN architectures to the controller and to persist
// graphs.
type Spec struct {
	Name  string     `json:"name"`
	Nodes []NodeSpec `json:"nodes"`
	// Edges are (from, to) node-index pairs.
	Edges [][2]int `json:"edges"`
}

// opByName maps mnemonics back to OpType values.
var opByName = func() map[string]OpType {
	m := make(map[string]OpType, NumOpTypes)
	for op := OpType(0); int(op) < NumOpTypes; op++ {
		m[op.String()] = op
	}
	return m
}()

// ParseOp resolves an operation mnemonic.
func ParseOp(name string) (OpType, error) {
	op, ok := opByName[name]
	if !ok {
		return 0, fmt.Errorf("graph: unknown operation %q", name)
	}
	return op, nil
}

// Spec returns the graph's wire representation.
func (g *Graph) Spec() *Spec {
	s := &Spec{Name: g.Name, Nodes: make([]NodeSpec, len(g.Nodes))}
	for i, n := range g.Nodes {
		s.Nodes[i] = NodeSpec{
			Op:          n.Op.String(),
			Label:       n.Label,
			OutChannels: n.OutChannels,
			OutH:        n.OutH,
			OutW:        n.OutW,
			Params:      n.Params,
			FLOPs:       n.FLOPs,
		}
	}
	// Sized once; left nil without edges so the marshalled bytes stay "null".
	if ne := g.NumEdges(); ne > 0 {
		s.Edges = make([][2]int, 0, ne)
	}
	for u := range g.Nodes {
		for _, v := range g.OutNeighbors(u) {
			s.Edges = append(s.Edges, [2]int{u, v})
		}
	}
	return s
}

// FromSpec reconstructs and validates a graph from its wire form.
func FromSpec(s *Spec) (*Graph, error) {
	if s == nil {
		return nil, fmt.Errorf("graph: nil spec")
	}
	nodes := make([]Node, len(s.Nodes))
	for i, ns := range s.Nodes {
		op, err := ParseOp(ns.Op)
		if err != nil {
			return nil, fmt.Errorf("graph: node %d: %w", i, err)
		}
		if ns.Params < 0 || ns.FLOPs < 0 {
			return nil, fmt.Errorf("graph: node %d has negative costs", i)
		}
		// The GHN takes log1p of every shape field (zero is legal, e.g. a
		// flattened tensor's H and W); a negative one would embed as NaN.
		if ns.OutChannels < 0 || ns.OutH < 0 || ns.OutW < 0 {
			return nil, fmt.Errorf("graph: node %d has negative shape", i)
		}
		// Its area too: an OutH·OutW past MaxInt wraps negative.
		if ns.OutH > 0 && ns.OutW > math.MaxInt/ns.OutH {
			return nil, fmt.Errorf("graph: node %d has out_h × out_w (%d × %d) overflowing int", i, ns.OutH, ns.OutW)
		}
		nodes[i] = Node{
			Op:          op,
			Label:       ns.Label,
			OutChannels: ns.OutChannels,
			OutH:        ns.OutH,
			OutW:        ns.OutW,
			Params:      ns.Params,
			FLOPs:       ns.FLOPs,
		}
	}
	g, err := assemble(s.Name, nodes, s.Edges)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
