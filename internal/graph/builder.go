package graph

import (
	"fmt"
	"sync"
)

// Config describes the model input tensor and classifier head used when
// instantiating a zoo architecture. Channels-first single-sample semantics:
// InputChannels x InputH x InputW.
type Config struct {
	InputH, InputW, InputChannels int
	NumClasses                    int
}

// DefaultConfig is a CIFAR-10-shaped input (3x32x32, 10 classes).
func DefaultConfig() Config {
	return Config{InputH: 32, InputW: 32, InputChannels: 3, NumClasses: 10}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.InputH <= 0 {
		c.InputH = d.InputH
	}
	if c.InputW <= 0 {
		c.InputW = d.InputW
	}
	if c.InputChannels <= 0 {
		c.InputChannels = d.InputChannels
	}
	if c.NumClasses <= 0 {
		c.NumClasses = d.NumClasses
	}
	return c
}

// builder derives each node's output shape and cost from its predecessors
// while a zoo or random architecture is described to it. It only
// accumulates nodes and edges in scratch that builderPool reuses across
// builds; finish copies them out at exact size (assemble), so nothing of the
// scratch is reachable from the returned graph. Shape mismatches are
// programming errors in the zoo definitions, so helpers panic with
// descriptive messages; every zoo model is covered by tests.
type builder struct {
	name  string
	nodes []Node
	edges [][2]int
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

// build lends fill a pooled builder and assembles what it described. The
// builder is acquired and released here and never outlives the call
// (DESIGN.md §10); fill must not retain it.
func build(name string, cfg Config, fill func(b *builder, cfg Config)) (*Graph, error) {
	b := builderPool.Get().(*builder)
	defer b.release()
	b.name = name
	fill(b, cfg)
	return b.finish()
}

// release empties the scratch — clearing nodes so their label strings are
// not pinned by the pool — and returns it. Deferred, it also runs when a
// zoo definition panics.
func (b *builder) release() {
	clear(b.nodes)
	b.name, b.nodes, b.edges = "", b.nodes[:0], b.edges[:0]
	builderPool.Put(b)
}

func (b *builder) shape(id int) (c, h, w int) {
	n := &b.nodes[id]
	return n.OutChannels, n.OutH, n.OutW
}

func (b *builder) node(op OpType, label string, from []int, outC, outH, outW int, params, flops int64) int {
	id := len(b.nodes)
	b.nodes = append(b.nodes, Node{
		Op: op, Label: label,
		OutChannels: outC, OutH: outH, OutW: outW,
		Params: params, FLOPs: flops,
	})
	for _, f := range from {
		b.edges = append(b.edges, [2]int{f, id})
	}
	return id
}

func (b *builder) input(cfg Config) int {
	return b.node(OpInput, "input", nil, cfg.InputChannels, cfg.InputH, cfg.InputW, 0, 0)
}

func convOut(in, k, stride, pad int) int {
	out := (in+2*pad-k)/stride + 1
	if out < 1 {
		out = 1
	}
	return out
}

// conv adds a (possibly grouped or depthwise) 2-D convolution with bias.
func (b *builder) conv(from, outC, k, stride, pad, groups int) int {
	inC, h, w := b.shape(from)
	if groups <= 0 {
		groups = 1
	}
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("graph builder %s: conv channels %d→%d not divisible by groups %d", b.name, inC, outC, groups))
	}
	oh, ow := convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	op := OpConv
	label := fmt.Sprintf("conv%dx%d", k, k)
	switch {
	case groups == inC && inC == outC && groups > 1:
		op = OpDepthwiseConv
		label = fmt.Sprintf("dwconv%dx%d", k, k)
	case groups > 1:
		op = OpGroupConv
		label = fmt.Sprintf("gconv%dx%d/g%d", k, k, groups)
	}
	if stride > 1 {
		label += fmt.Sprintf("/s%d", stride)
	}
	kernel := int64(inC/groups) * int64(k) * int64(k)
	params := int64(outC)*kernel + int64(outC)
	flops := 2*int64(oh)*int64(ow)*int64(outC)*kernel + int64(oh)*int64(ow)*int64(outC)
	return b.node(op, label, []int{from}, outC, oh, ow, params, flops)
}

// bn adds batch normalization over the predecessor's channels.
func (b *builder) bn(from int) int {
	c, h, w := b.shape(from)
	elems := int64(c) * int64(h) * int64(w)
	return b.node(OpBatchNorm, "bn", []int{from}, c, h, w, 2*int64(c), 2*elems)
}

// act adds an element-wise activation.
func (b *builder) act(from int, op OpType) int {
	if !op.IsActivation() {
		panic(fmt.Sprintf("graph builder %s: %s is not an activation", b.name, op))
	}
	c, h, w := b.shape(from)
	elems := int64(c) * int64(h) * int64(w)
	return b.node(op, op.String(), []int{from}, c, h, w, 0, elems)
}

func (b *builder) pool(from int, op OpType, k, stride, pad int) int {
	c, h, w := b.shape(from)
	oh, ow := convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	flops := int64(oh) * int64(ow) * int64(c) * int64(k) * int64(k)
	label := fmt.Sprintf("%s%dx%d/s%d", op, k, k, stride)
	return b.node(op, label, []int{from}, c, oh, ow, 0, flops)
}

func (b *builder) maxPool(from, k, stride, pad int) int {
	return b.pool(from, OpMaxPool, k, stride, pad)
}

func (b *builder) avgPool(from, k, stride, pad int) int {
	return b.pool(from, OpAvgPool, k, stride, pad)
}

// adaptiveAvgPool pools to target spatial dims (clamped to the input size),
// matching torchvision's AdaptiveAvgPool2d semantics closely enough for cost
// accounting.
func (b *builder) adaptiveAvgPool(from, targetH, targetW int) int {
	c, h, w := b.shape(from)
	oh, ow := targetH, targetW
	if oh > h {
		oh = h
	}
	if ow > w {
		ow = w
	}
	flops := int64(c) * int64(h) * int64(w)
	return b.node(OpAvgPool, fmt.Sprintf("adaptiveavg%dx%d", oh, ow), []int{from}, c, oh, ow, 0, flops)
}

// gap adds global average pooling to 1x1.
func (b *builder) gap(from int) int {
	c, h, w := b.shape(from)
	flops := int64(c) * int64(h) * int64(w)
	return b.node(OpGlobalAvgPool, "gap", []int{from}, c, 1, 1, 0, flops)
}

// add joins two equally shaped tensors element-wise (residual connection).
func (b *builder) add(x, y int) int {
	cx, hx, wx := b.shape(x)
	cy, hy, wy := b.shape(y)
	if cx != cy || hx != hy || wx != wy {
		panic(fmt.Sprintf("graph builder %s: add shape mismatch %dx%dx%d vs %dx%dx%d (nodes %d,%d)",
			b.name, cx, hx, wx, cy, hy, wy, x, y))
	}
	return b.node(OpAdd, "add", []int{x, y}, cx, hx, wx, 0, int64(cx)*int64(hx)*int64(wx))
}

// concat joins tensors along the channel dimension.
func (b *builder) concat(ids ...int) int {
	if len(ids) < 2 {
		panic(fmt.Sprintf("graph builder %s: concat needs ≥2 inputs", b.name))
	}
	c0, h0, w0 := b.shape(ids[0])
	total := c0
	for _, id := range ids[1:] {
		c, h, w := b.shape(id)
		if h != h0 || w != w0 {
			panic(fmt.Sprintf("graph builder %s: concat spatial mismatch %dx%d vs %dx%d", b.name, h, w, h0, w0))
		}
		total += c
	}
	return b.node(OpConcat, "concat", ids, total, h0, w0, 0, 0)
}

// mul multiplies x element-wise by a per-channel gate g (broadcast over
// spatial dims), the squeeze-and-excite attention application.
func (b *builder) mul(x, gate int) int {
	cx, hx, wx := b.shape(x)
	cg, _, _ := b.shape(gate)
	if cx != cg {
		panic(fmt.Sprintf("graph builder %s: mul channel mismatch %d vs %d", b.name, cx, cg))
	}
	return b.node(OpMul, "mul", []int{x, gate}, cx, hx, wx, 0, int64(cx)*int64(hx)*int64(wx))
}

// flatten reshapes CxHxW into a vector of length C*H*W.
func (b *builder) flatten(from int) int {
	c, h, w := b.shape(from)
	return b.node(OpFlatten, "flatten", []int{from}, c*h*w, 1, 1, 0, 0)
}

// linear adds a fully connected layer; the predecessor must be flat (1x1).
func (b *builder) linear(from, out int) int {
	c, h, w := b.shape(from)
	in := c * h * w
	params := int64(in)*int64(out) + int64(out)
	flops := 2 * int64(in) * int64(out)
	return b.node(OpLinear, fmt.Sprintf("fc%d", out), []int{from}, out, 1, 1, params, flops)
}

func (b *builder) dropout(from int) int {
	c, h, w := b.shape(from)
	return b.node(OpDropout, "dropout", []int{from}, c, h, w, 0, int64(c)*int64(h)*int64(w))
}

func (b *builder) softmax(from int) int {
	c, h, w := b.shape(from)
	return b.node(OpSoftmax, "softmax", []int{from}, c, h, w, 0, 3*int64(c)*int64(h)*int64(w))
}

// output terminates the graph.
func (b *builder) output(from int) int {
	c, h, w := b.shape(from)
	return b.node(OpOutput, "output", []int{from}, c, h, w, 0, 0)
}

// finish assembles, validates and returns the described graph.
func (b *builder) finish() (*Graph, error) {
	nodes := make([]Node, len(b.nodes))
	copy(nodes, b.nodes)
	g, err := assemble(b.name, nodes, b.edges)
	if err == nil {
		err = g.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("graph builder %s: %w", b.name, err)
	}
	return g, nil
}

// convBNAct is the ubiquitous conv → batch norm → activation block.
func (b *builder) convBNAct(from, outC, k, stride, pad, groups int, act OpType) int {
	id := b.conv(from, outC, k, stride, pad, groups)
	id = b.bn(id)
	return b.act(id, act)
}

// seBlock adds a squeeze-and-excite module gating x: GAP → FC(reduce) →
// ReLU → FC(expand) → gate activation → Mul.
func (b *builder) seBlock(x, reduced int, gateAct OpType) int {
	c, _, _ := b.shape(x)
	s := b.gap(x)
	s = b.linear(s, reduced)
	s = b.act(s, OpReLU)
	s = b.linear(s, c)
	s = b.act(s, gateAct)
	return b.mul(x, s)
}

// classifierHead adds GAP → flatten → FC(numClasses) → softmax → output.
func (b *builder) classifierHead(from int, cfg Config) int {
	id := b.gap(from)
	id = b.flatten(id)
	id = b.linear(id, cfg.NumClasses)
	id = b.softmax(id)
	return b.output(id)
}
