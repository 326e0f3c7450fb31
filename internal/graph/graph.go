package graph

import (
	"errors"
	"fmt"
)

// Node is one primitive operation in a computational graph, annotated with
// the shape and cost metadata the simulator and GHN need.
type Node struct {
	// ID is the node's index in Graph.Nodes.
	ID int
	// Op is the primitive operation performed.
	Op OpType
	// Label is a human-readable description, e.g. "conv3x3/2".
	Label string

	// OutChannels and OutH/OutW describe the node's output tensor shape
	// (channels x height x width) for one sample.
	OutChannels, OutH, OutW int

	// Params is the number of learnable scalars the node carries.
	Params int64
	// FLOPs is the forward-pass floating-point operation count for one
	// sample (multiply-accumulate counted as 2 FLOPs).
	FLOPs int64
}

// Graph is a directed acyclic computational graph. Construct with New and
// AddNode/AddEdge; call Validate before analysis. Graphs are immutable after
// Validate by convention and safe for concurrent reads.
type Graph struct {
	// Name identifies the architecture, e.g. "resnet18".
	Name string
	// Nodes holds the operation nodes indexed by Node.ID.
	Nodes []*Node

	out [][]int // adjacency: out[i] = IDs receiving i's output
	in  [][]int // reverse adjacency
}

// New returns an empty graph with the given architecture name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddNode appends a node and returns its ID. The node's ID field is set by
// the graph.
func (g *Graph) AddNode(n *Node) int {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return n.ID
}

// AddEdge adds a dataflow edge from node u to node v.
func (g *Graph) AddEdge(u, v int) error {
	if err := checkEdge(u, v, len(g.Nodes)); err != nil {
		return err
	}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	return nil
}

// checkEdge rejects an edge (u,v) that an n-node graph cannot hold.
func checkEdge(u, v, n int) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) references missing node (have %d nodes)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	return nil
}

// assemble is the one place a whole graph is materialised: FromSpec and the
// zoo/random builder both end here. It takes ownership of nodes (an
// exact-size slice the caller just allocated), copies edges in order — so
// adjacency order is what the same AddEdge calls would have produced — and
// rejects a bad edge with AddEdge's error. Beyond nodes it allocates the
// Graph, Nodes, one header block shared by out and in, and one adjacency
// slab carved by degree; every slice it hands out has cap == len, so a later
// AddNode/AddEdge reallocates instead of writing into a neighbouring list
// (DESIGN.md "Graph memory layout").
func assemble(name string, nodes []Node, edges [][2]int) (*Graph, error) {
	n := len(nodes)
	heads := make([][]int, 2*n)
	out, in := heads[:n:n], heads[n:]
	slab := make([]int, 2*len(edges))
	// Count degrees in the headers' own length fields: every list starts as
	// an empty view of the slab and grows by one per incident edge, with
	// nothing written yet.
	for i := range heads {
		heads[i] = slab[:0]
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		if err := checkEdge(u, v, n); err != nil {
			return nil, err
		}
		out[u] = out[u][:len(out[u])+1]
		in[v] = in[v][:len(in[v])+1]
	}
	off := 0
	for i, h := range heads {
		heads[i] = slab[off : off : off+len(h)]
		off += len(h)
	}
	for _, e := range edges {
		out[e[0]] = append(out[e[0]], e[1])
		in[e[1]] = append(in[e[1]], e[0])
	}
	g := &Graph{Name: name, Nodes: make([]*Node, n), out: out, in: in}
	for i := range nodes {
		nodes[i].ID = i
		g.Nodes[i] = &nodes[i]
	}
	return g, nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	var n int
	for _, e := range g.out {
		n += len(e)
	}
	return n
}

// OutNeighbors returns the IDs that consume node id's output. The slice is
// owned by the graph; do not mutate.
func (g *Graph) OutNeighbors(id int) []int { return g.out[id] }

// InNeighbors returns the IDs feeding node id. The slice is owned by the
// graph; do not mutate.
func (g *Graph) InNeighbors(id int) []int { return g.in[id] }

// ErrCyclic is returned by Validate and TopoOrder when the graph contains a
// cycle.
var ErrCyclic = errors.New("graph: not a DAG (cycle detected)")

// TopoOrder returns the node IDs in a topological order (inputs first). It
// returns ErrCyclic if the graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, es := range g.out {
		for _, v := range es {
			indeg[v]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCyclic
	}
	return order, nil
}

// Validate checks structural invariants: the graph is a non-empty DAG, every
// non-input node has at least one predecessor, every non-output node has at
// least one successor, there is exactly one OpInput and one OpOutput node,
// and all op types are known.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return errors.New("graph: empty graph")
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	var inputs, outputs int
	for _, n := range g.Nodes {
		if !n.Op.Valid() {
			return fmt.Errorf("graph: node %d has invalid op %d", n.ID, int(n.Op))
		}
		switch n.Op {
		case OpInput:
			inputs++
			if len(g.in[n.ID]) != 0 {
				return fmt.Errorf("graph: input node %d has predecessors", n.ID)
			}
		case OpOutput:
			outputs++
			if len(g.out[n.ID]) != 0 {
				return fmt.Errorf("graph: output node %d has successors", n.ID)
			}
		default:
			if len(g.in[n.ID]) == 0 {
				return fmt.Errorf("graph: node %d (%s) has no inputs", n.ID, n.Op)
			}
			if len(g.out[n.ID]) == 0 {
				return fmt.Errorf("graph: node %d (%s) has no consumers", n.ID, n.Op)
			}
		}
	}
	if inputs != 1 {
		return fmt.Errorf("graph: want exactly 1 input node, have %d", inputs)
	}
	if outputs != 1 {
		return fmt.Errorf("graph: want exactly 1 output node, have %d", outputs)
	}
	return nil
}

// TotalParams returns the total learnable parameter count.
func (g *Graph) TotalParams() int64 {
	var s int64
	for _, n := range g.Nodes {
		s += n.Params
	}
	return s
}

// TotalFLOPs returns the forward-pass FLOPs for one sample.
func (g *Graph) TotalFLOPs() int64 {
	var s int64
	for _, n := range g.Nodes {
		s += n.FLOPs
	}
	return s
}

// NumLayers returns the number of parameter-bearing operations, the "number
// of layers" feature the paper's gray-box baseline uses.
func (g *Graph) NumLayers() int {
	var c int
	for _, n := range g.Nodes {
		if n.Op.HasParams() {
			c++
		}
	}
	return c
}

// Depth returns the length (in edges) of the longest path from the input
// node to the output node.
func (g *Graph) Depth() int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	dist := make([]int, len(g.Nodes))
	for i := range dist {
		dist[i] = -1
	}
	for _, n := range g.Nodes {
		if n.Op == OpInput {
			dist[n.ID] = 0
		}
	}
	best := 0
	for _, u := range order {
		if dist[u] < 0 {
			continue
		}
		for _, v := range g.out[u] {
			if dist[u]+1 > dist[v] {
				dist[v] = dist[u] + 1
				if dist[v] > best {
					best = dist[v]
				}
			}
		}
	}
	return best
}

// ShortestPathsFrom returns BFS hop distances from src along forward edges;
// unreachable nodes get -1. GHN-2's virtual edges (Eq. 4) weight messages by
// 1/s for nodes at distance s.
func (g *Graph) ShortestPathsFrom(src int, reverse bool) []int {
	n := len(g.Nodes)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	adj := g.out
	if reverse {
		adj = g.in
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// OpCounts returns a histogram over op types.
func (g *Graph) OpCounts() [NumOpTypes]int {
	var c [NumOpTypes]int
	for _, n := range g.Nodes {
		c[n.Op]++
	}
	return c
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%s: %d nodes, %d edges, %d layers, %.2fM params, %.1fM FLOPs)",
		g.Name, g.NumNodes(), g.NumEdges(), g.NumLayers(),
		float64(g.TotalParams())/1e6, float64(g.TotalFLOPs())/1e6)
}
