package graph

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"predictddl/internal/tensor"
)

func TestSpecRoundTripZooModel(t *testing.T) {
	for _, name := range []string{"resnet18", "mobilenet_v3_small", "densenet121"} {
		g := MustBuild(name, DefaultConfig())
		back, err := FromSpec(g.Spec())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertGraphsEqual(t, g, back)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := MustBuild("squeezenet1_1", DefaultConfig())
	data, err := json.Marshal(g.Spec())
	if err != nil {
		t.Fatal(err)
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	back, err := FromSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, back)
}

func assertGraphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.Name != b.Name || a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("structure mismatch: %s vs %s", a, b)
	}
	if a.TotalParams() != b.TotalParams() || a.TotalFLOPs() != b.TotalFLOPs() {
		t.Fatalf("cost mismatch: %s vs %s", a, b)
	}
	for i, n := range a.Nodes {
		m := b.Nodes[i]
		if n.Op != m.Op || n.OutChannels != m.OutChannels || n.OutH != m.OutH || n.OutW != m.OutW {
			t.Fatalf("node %d mismatch: %+v vs %+v", i, n, m)
		}
	}
	for u := range a.Nodes {
		ae, be := a.OutNeighbors(u), b.OutNeighbors(u)
		if len(ae) != len(be) {
			t.Fatalf("node %d edges differ", u)
		}
		for i := range ae {
			if ae[i] != be[i] {
				t.Fatalf("node %d edge %d differs", u, i)
			}
		}
	}
}

func TestRandomGraphRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomGraph(tensor.NewRNG(seed), DefaultConfig())
		back, err := FromSpec(g.Spec())
		if err != nil {
			return false
		}
		return back.TotalParams() == g.TotalParams() &&
			back.NumNodes() == g.NumNodes() &&
			back.NumEdges() == g.NumEdges() &&
			back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestParseOp(t *testing.T) {
	op, err := ParseOp("conv")
	if err != nil || op != OpConv {
		t.Fatalf("ParseOp(conv) = %v, %v", op, err)
	}
	if _, err := ParseOp("attention"); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Every op must round-trip through its mnemonic.
	for o := OpType(0); int(o) < NumOpTypes; o++ {
		back, err := ParseOp(o.String())
		if err != nil || back != o {
			t.Fatalf("op %v does not round-trip", o)
		}
	}
}

func TestFromSpecRejectsInvalid(t *testing.T) {
	if _, err := FromSpec(nil); err == nil {
		t.Fatal("nil spec accepted")
	}
	// Unknown op.
	if _, err := FromSpec(&Spec{Nodes: []NodeSpec{{Op: "warp"}}}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Negative costs.
	if _, err := FromSpec(&Spec{Nodes: []NodeSpec{{Op: "conv", Params: -1}}}); err == nil {
		t.Fatal("negative params accepted")
	}
	// Negative shape, any of the three fields; zero stays legal.
	for _, ns := range []NodeSpec{{Op: "conv", OutChannels: -1}, {Op: "conv", OutH: -1}, {Op: "conv", OutW: -5}} {
		_, err := FromSpec(&Spec{Nodes: []NodeSpec{ns}})
		if err == nil || err.Error() != "graph: node 0 has negative shape" {
			t.Fatalf("negative shape %+v: err = %v", ns, err)
		}
	}
	// Bad edge index.
	if _, err := FromSpec(&Spec{
		Nodes: []NodeSpec{{Op: "input"}, {Op: "output"}},
		Edges: [][2]int{{0, 5}},
	}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// Structurally invalid (no output node).
	if _, err := FromSpec(&Spec{
		Nodes: []NodeSpec{{Op: "input"}, {Op: "conv"}},
		Edges: [][2]int{{0, 1}},
	}); err == nil {
		t.Fatal("graph without output accepted")
	}
}
