package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

	// adj holds every adjacency list in compressed-row form: list k is
	// adj[off[k]:off[k+1]], the out-list of node i is list i (the IDs
	// receiving i's output) and its in-list is list len(Nodes)+i.
	adj []int
	off []int32
}

// New returns an empty graph with the given architecture name.
func New(name string) *Graph {
	return &Graph{Name: name}
}

// AddNode appends a node and returns its ID. The node's ID field is set by
// the graph.
func (g *Graph) AddNode(n *Node) int {
	n.ID = len(g.Nodes)
	if g.off == nil {
		g.off = []int32{0}
	}
	// Two empty lists: the node's out-list after the last out-list, its
	// in-list at the end.
	g.off = slices.Insert(g.off, n.ID, g.off[n.ID])
	g.off = append(g.off, g.off[len(g.off)-1])
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// AddEdge adds a dataflow edge from node u to node v. It copies the
// adjacency into a new slab, so a list handed out earlier never changes.
func (g *Graph) AddEdge(u, v int) error {
	n := len(g.Nodes)
	if err := checkEdge(u, v, n); err != nil {
		return err
	}
	i, j := g.off[u+1], g.off[n+v+1] // the ends of u's out-list and v's in-list
	g.adj = slices.Concat(g.adj[:i], []int{v}, g.adj[i:j], []int{u}, g.adj[j:])
	for k := u + 1; k < len(g.off); k++ {
		g.off[k]++
	}
	for k := n + v + 1; k < len(g.off); k++ {
		g.off[k]++
	}
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
// Graph, Nodes, the offset array and the adjacency slab; every list it hands
// out has cap == len, so a caller's append reallocates instead of writing
// into a neighbouring list (DESIGN.md "Graph memory layout").
func assemble(name string, nodes []Node, edges [][2]int) (*Graph, error) {
	n := len(nodes)
	if len(edges) > math.MaxInt32/2 {
		return nil, fmt.Errorf("graph: %d edges exceed the adjacency limit of %d", len(edges), math.MaxInt32/2)
	}
	// Degrees first, each list's in the entry after its own; a prefix sum
	// then turns off[k] into the start of list k.
	off := make([]int32, 2*n+1)
	for _, e := range edges {
		u, v := e[0], e[1]
		if err := checkEdge(u, v, n); err != nil {
			return nil, err
		}
		off[u+1]++
		off[n+v+1]++
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	// Fill in edge order, advancing each list's start past what it holds;
	// every off[k] ends at the start of list k+1, one entry early.
	adj := make([]int, 2*len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		adj[off[u]] = v
		off[u]++
		adj[off[n+v]] = u
		off[n+v]++
	}
	copy(off[1:], off)
	off[0] = 0
	g := &Graph{Name: name, Nodes: make([]*Node, n), adj: adj, off: off}
	for i := range nodes {
		nodes[i].ID = i
		g.Nodes[i] = &nodes[i]
	}
	return g, nil
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// list returns adjacency list k with cap == len.
func (g *Graph) list(k int) []int {
	lo, hi := g.off[k], g.off[k+1]
	return g.adj[lo:hi:hi]
}

// OutNeighbors returns the IDs that consume node id's output. The slice is
// owned by the graph; do not mutate.
func (g *Graph) OutNeighbors(id int) []int {
	_ = g.Nodes[id] // an out-of-range id panics rather than reading an in-list
	return g.list(id)
}

// InNeighbors returns the IDs feeding node id. The slice is owned by the
// graph; do not mutate.
func (g *Graph) InNeighbors(id int) []int {
	_ = g.Nodes[id]
	return g.list(len(g.Nodes) + id)
}

// ErrCyclic is returned by Validate and TopoOrder when the graph contains a
// cycle.
var ErrCyclic = errors.New("graph: not a DAG (cycle detected)")

// TopoOrder returns the node IDs in a topological order (inputs first). It
// returns ErrCyclic if the graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.Nodes)
	indeg := make([]int, n)
	for i := range indeg {
		indeg[i] = len(g.InNeighbors(i))
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
		for _, v := range g.OutNeighbors(u) {
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
			if len(g.InNeighbors(n.ID)) != 0 {
				return fmt.Errorf("graph: input node %d has predecessors", n.ID)
			}
		case OpOutput:
			outputs++
			if len(g.OutNeighbors(n.ID)) != 0 {
				return fmt.Errorf("graph: output node %d has successors", n.ID)
			}
		default:
			if len(g.InNeighbors(n.ID)) == 0 {
				return fmt.Errorf("graph: node %d (%s) has no inputs", n.ID, n.Op)
			}
			if len(g.OutNeighbors(n.ID)) == 0 {
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
		for _, v := range g.OutNeighbors(u) {
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
	adj := g.OutNeighbors
	if reverse {
		adj = g.InNeighbors
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj(u) {
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
