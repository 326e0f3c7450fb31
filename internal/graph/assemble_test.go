package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"predictddl/internal/tensor"
)

// The three dataset shapes the repo builds zoo models at (dataset.GraphConfig
// of cifar10, tiny-imagenet and imagenet; package dataset imports this one).
var datasetConfigs = []Config{
	{InputH: 32, InputW: 32, InputChannels: 3, NumClasses: 10},
	{InputH: 64, InputW: 64, InputChannels: 3, NumClasses: 200},
	{InputH: 224, InputW: 224, InputChannels: 3, NumClasses: 1000},
}

// builtGraphs returns what the builder produces in this repo: every zoo
// model at every dataset shape, then 200 seeded random graphs.
func builtGraphs() []*Graph {
	var gs []*Graph
	for _, name := range Zoo() {
		for _, cfg := range datasetConfigs {
			gs = append(gs, MustBuild(name, cfg))
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		gs = append(gs, RandomGraph(tensor.NewRNG(seed), DefaultConfig()))
	}
	return gs
}

// replay rebuilds a graph through the public mutators only. in selects the
// edge order: a builder adds a node's incoming edges when it creates the
// node, so walking in-lists by ascending node replays its AddEdge calls;
// otherwise edges come in Spec order, which is what FromSpec is handed.
func replay(t *testing.T, g *Graph, in bool) *Graph {
	t.Helper()
	ref := New(g.Name)
	for _, n := range g.Nodes {
		c := *n
		c.ID = -1
		ref.AddNode(&c)
	}
	edges := g.Spec().Edges
	if in {
		edges = edges[:0]
		for v := range g.Nodes {
			for _, u := range g.InNeighbors(v) {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	for _, e := range edges {
		if err := ref.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// sameGraph reports the first difference between two graphs, comparing
// everything a caller can observe: name, every node field, both adjacency
// orders, the fingerprint and the wire form.
func sameGraph(a, b *Graph) error {
	if a.Name != b.Name || a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("%s vs %s", a, b)
	}
	for i, n := range a.Nodes {
		if n.ID != i || b.Nodes[i].ID != i {
			return fmt.Errorf("%s: node %d has IDs %d and %d", a.Name, i, n.ID, b.Nodes[i].ID)
		}
		if *n != *b.Nodes[i] {
			return fmt.Errorf("%s: node %d: %+v vs %+v", a.Name, i, *n, *b.Nodes[i])
		}
		if !slices.Equal(a.OutNeighbors(i), b.OutNeighbors(i)) {
			return fmt.Errorf("%s: node %d out: %v vs %v", a.Name, i, a.OutNeighbors(i), b.OutNeighbors(i))
		}
		if !slices.Equal(a.InNeighbors(i), b.InNeighbors(i)) {
			return fmt.Errorf("%s: node %d in: %v vs %v", a.Name, i, a.InNeighbors(i), b.InNeighbors(i))
		}
	}
	if a.Fingerprint() != b.Fingerprint() {
		return fmt.Errorf("%s: fingerprints differ", a.Name)
	}
	if !reflect.DeepEqual(a.Spec(), b.Spec()) {
		return fmt.Errorf("%s: specs differ", a.Name)
	}
	return nil
}

// Every graph the builder assembles equals the one the same AddNode/AddEdge
// calls would have made, and so does its FromSpec round trip.
func TestAssembledGraphsMatchPublicConstruction(t *testing.T) {
	for _, g := range builtGraphs() {
		if err := sameGraph(g, replay(t, g, true)); err != nil {
			t.Fatalf("builder: %v", err)
		}
		back, err := FromSpec(g.Spec())
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := sameGraph(back, replay(t, g, false)); err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
	}
}

// builtGraphsDigest was computed at 70d555e, where builder.node and FromSpec
// still went through AddNode/AddEdge one node at a time. Unlike the replay
// above it does not take the in-list order from the graph under test.
const builtGraphsDigest = "d7d15a6c8d8069ff72c9e14a48200cd2441274aa56d5241504855a64b4c55885"

func TestAssembledGraphsMatchParentDigest(t *testing.T) {
	h := sha256.New()
	for _, g := range builtGraphs() {
		back, err := FromSpec(g.Spec())
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*Graph{g, back} {
			fmt.Fprintf(h, "%q %d\n", g.Name, g.NumNodes())
			for i, n := range g.Nodes {
				fmt.Fprintf(h, "%+v %v %v\n", *n, g.OutNeighbors(i), g.InNeighbors(i))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != builtGraphsDigest {
		t.Fatalf("digest over every built graph = %s, want %s", got, builtGraphsDigest)
	}
}

// FromSpec reports the same first error, in the same words, as when it fed
// AddNode and AddEdge: nodes in index order (unknown op, then costs, then
// shape, then the H×W area — a check added since), then edges in list order
// (range, then self-loop), then Validate.
func TestFromSpecErrorTextAndOrder(t *testing.T) {
	io := []NodeSpec{{Op: "input"}, {Op: "output"}}
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown op", Spec{Nodes: []NodeSpec{{Op: "input"}, {Op: "warp", Params: -1}}},
			`graph: node 1: graph: unknown operation "warp"`},
		{"negative cost before shape", Spec{Nodes: []NodeSpec{{Op: "conv", FLOPs: -1, OutH: -1}}},
			"graph: node 0 has negative costs"},
		{"negative shape", Spec{Nodes: []NodeSpec{{Op: "input"}, {Op: "conv", OutW: -1}}},
			"graph: node 1 has negative shape"},
		{"negative shape before area", Spec{Nodes: []NodeSpec{{Op: "conv", OutChannels: -1, OutH: math.MaxInt, OutW: 2}}},
			"graph: node 0 has negative shape"},
		{"area overflows int", Spec{Nodes: []NodeSpec{{Op: "input"}, {Op: "conv", OutH: 3037000500, OutW: 3037000500}}},
			"graph: node 1 has out_h × out_w (3037000500 × 3037000500) overflowing int"},
		{"area at MaxInt is legal", Spec{Nodes: []NodeSpec{{Op: "input", OutH: 1, OutW: math.MaxInt}}, Edges: [][2]int{{0, 0}}},
			"graph: self-loop on node 0"},
		{"node before edge", Spec{Nodes: []NodeSpec{{Op: "input"}, {Op: "nope"}}, Edges: [][2]int{{0, 9}}},
			`graph: node 1: graph: unknown operation "nope"`},
		{"out of range", Spec{Nodes: io, Edges: [][2]int{{0, 1}, {0, 2}, {1, 1}}},
			"graph: edge (0,2) references missing node (have 2 nodes)"},
		{"negative endpoint", Spec{Nodes: io, Edges: [][2]int{{-1, 1}}},
			"graph: edge (-1,1) references missing node (have 2 nodes)"},
		{"self-loop first", Spec{Nodes: io, Edges: [][2]int{{1, 1}, {0, 2}}},
			"graph: self-loop on node 1"},
		{"edge into no nodes", Spec{Edges: [][2]int{{0, 0}}},
			"graph: edge (0,0) references missing node (have 0 nodes)"},
		{"edge before validate", Spec{Nodes: []NodeSpec{{Op: "input"}, {Op: "conv"}}, Edges: [][2]int{{0, 1}, {5, 0}}},
			"graph: edge (5,0) references missing node (have 2 nodes)"},
		{"empty", Spec{}, "graph: empty graph"},
		{"cycle", Spec{Nodes: []NodeSpec{{Op: "input"}, {Op: "conv"}, {Op: "relu"}, {Op: "output"}},
			Edges: [][2]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}}}, ErrCyclic.Error()},
		{"no consumers", Spec{Nodes: []NodeSpec{{Op: "input"}, {Op: "conv"}, {Op: "output"}}, Edges: [][2]int{{0, 1}, {0, 2}}},
			"graph: node 1 (conv) has no consumers"},
	} {
		_, err := FromSpec(&c.spec)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: err = %v, want %s", c.name, err, c.want)
		}
	}
}

// neighbours deep-copies both adjacency lists of every node.
func neighbours(g *Graph) (out, in [][]int) {
	for i := range g.Nodes {
		out = append(out, slices.Clone(g.OutNeighbors(i)))
		in = append(in, slices.Clone(g.InNeighbors(i)))
	}
	return out, in
}

// Lists carved from one slab must not be grown in place: a public AddEdge or
// AddNode on an assembled graph changes the lists it names and no other.
func TestMutatingAssembledGraphTouchesOnlyNamedLists(t *testing.T) {
	fromSpec, err := FromSpec(MustBuild("squeezenet1_1", DefaultConfig()).Spec())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{
		MustBuild("resnet18", DefaultConfig()),
		RandomGraph(tensor.NewRNG(1), DefaultConfig()),
		fromSpec,
	} {
		last := g.NumNodes() - 1
		for _, e := range [][2]int{{0, last}, {last, 0}, {1, 2}, {2, 1}} {
			wantOut, wantIn := neighbours(g)
			if err := g.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			wantOut[e[0]] = append(wantOut[e[0]], e[1])
			wantIn[e[1]] = append(wantIn[e[1]], e[0])
			if out, in := neighbours(g); !reflect.DeepEqual(out, wantOut) || !reflect.DeepEqual(in, wantIn) {
				t.Fatalf("%s: AddEdge%v disturbed another list", g.Name, e)
			}
		}
		wantOut, wantIn := neighbours(g)
		id := g.AddNode(&Node{Op: OpReLU})
		if id != last+1 || g.Nodes[id].ID != id {
			t.Fatalf("%s: AddNode returned %d after %d nodes", g.Name, id, last+1)
		}
		if err := g.AddEdge(id, 3); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(last, id); err != nil {
			t.Fatal(err)
		}
		wantOut = append(wantOut, []int{3})
		wantIn = append(wantIn, []int{last})
		wantOut[last] = append(wantOut[last], id)
		wantIn[3] = append(wantIn[3], id)
		if out, in := neighbours(g); !reflect.DeepEqual(out, wantOut) || !reflect.DeepEqual(in, wantIn) {
			t.Fatalf("%s: AddNode+AddEdge disturbed another list", g.Name)
		}
	}
}

// The guard behind the test above, and the reason retained graphs carry no
// append slack: every slice of an assembled graph is exactly full.
func TestAssembledGraphSlicesAreExactSize(t *testing.T) {
	fromSpec, err := FromSpec(RandomGraph(tensor.NewRNG(2), DefaultConfig()).Spec())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Graph{MustBuild("densenet121", DefaultConfig()), RandomGraph(tensor.NewRNG(2), DefaultConfig()), fromSpec} {
		if cap(g.Nodes) != len(g.Nodes) || cap(g.adj) != len(g.adj) || cap(g.off) != len(g.off) {
			t.Fatalf("%s: Nodes %d/%d, adj %d/%d, off %d/%d (len/cap)", g.Name,
				len(g.Nodes), cap(g.Nodes), len(g.adj), cap(g.adj), len(g.off), cap(g.off))
		}
		for i := range g.Nodes {
			if o, in := g.OutNeighbors(i), g.InNeighbors(i); cap(o) != len(o) || cap(in) != len(in) {
				t.Fatalf("%s: node %d out %d/%d, in %d/%d (len/cap)", g.Name, i, len(o), cap(o), len(in), cap(in))
			}
		}
	}
}

// Builds share pooled scratch; concurrent ones must not see each other's.
func TestConcurrentBuildsMatchSerial(t *testing.T) {
	zoo := Zoo()
	type job struct {
		name string
		cfg  Config
	}
	jobs := make([]job, 64)
	want := make([]*Graph, len(jobs))
	for i := range jobs {
		jobs[i] = job{zoo[i%len(zoo)], datasetConfigs[i%2]}
		want[i] = MustBuild(jobs[i].name, jobs[i].cfg)
	}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				got, err := Build(jobs[i].name, jobs[i].cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sameGraph(got, want[i]); err != nil {
					t.Errorf("goroutine %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// At 70d555e Build("resnet50") made 665 allocations, Build("efficientnet_b7")
// 3084 and RandomGraphSpec over the small bounds 107 on average: about five
// per node. What is left is five for the graph, three inside Validate and
// the label strings fmt.Sprintf makes (convs, pools, linears).
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc bounds only hold without it")
	}
	for _, c := range []struct {
		name  string
		limit float64
	}{{"resnet50", 665 / 4}, {"efficientnet_b7", 3084 / 4}} {
		got := testing.AllocsPerRun(20, func() { sinkGraph = MustBuild(c.name, DefaultConfig()) })
		t.Logf("Build(%s): %v allocs", c.name, got)
		if got > c.limit {
			t.Errorf("Build(%s): %v allocs, want <= %v", c.name, got, c.limit)
		}
	}
	rng := tensor.NewRNG(3)
	got := testing.AllocsPerRun(200, func() { sinkGraph = RandomGraphSpec(rng, DefaultConfig(), smallRandomSpec) })
	t.Logf("RandomGraphSpec(small): %v allocs", got)
	if limit := 107.0 / 4; got > limit {
		t.Errorf("RandomGraphSpec(small): %v allocs, want <= %v", got, limit)
	}
}

// FromSpec allocates the node slab, assemble's four and Validate's three,
// whatever the size (256 for resnet18 at 70d555e).
func TestFromSpecAllocs(t *testing.T) {
	for _, name := range []string{"alexnet", "resnet18", "efficientnet_b7"} {
		spec := MustBuild(name, DefaultConfig()).Spec()
		got := testing.AllocsPerRun(20, func() {
			g, err := FromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			sinkGraph = g
		})
		if got > 8 {
			t.Errorf("FromSpec(%s, %d nodes): %v allocs, want <= 8", name, len(spec.Nodes), got)
		}
	}
}

// The slab trap (DESIGN.md "Graph memory layout"): carving nodes from
// fixed-size chunks was as fast to build but made every retained small
// graph pin its whole chunk. 2048 retained batch_churn-sized graphs cost
// 9 555 056 bytes at 70d555e, 8 340 384 with exact-size assembly and a
// slice header per adjacency list, and 6 120 752 (6 202 736 under -race)
// with compressed-row adjacency; the bound leaves a few percent over that.
func TestRetainedGraphsCostNoMoreThanParent(t *testing.T) {
	const parentBytes = 6_400_000
	rng := tensor.NewRNG(5)
	keep := make([]*Graph, 2048)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle drops what sync.Pool kept through the first
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = RandomGraphSpec(rng, DefaultConfig(), smallRandomSpec)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d retained graphs: %d bytes, bound %d", len(keep), got, parentBytes)
	if got > parentBytes {
		t.Errorf("%d retained graphs hold %d bytes, want <= %d", len(keep), got, parentBytes)
	}
	runtime.KeepAlive(keep)
}
