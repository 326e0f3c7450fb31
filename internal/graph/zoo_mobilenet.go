package graph

// buildMobileNetV2 constructs MobileNet-V2 (Sandler et al., CVPR'18) from
// inverted-residual blocks with linear bottlenecks.
func buildMobileNetV2(b *builder, cfg Config) {
	id := b.input(cfg)
	id = b.convBNAct(id, 32, 3, 2, 1, 1, OpReLU6)
	inC := 32
	// (expansion t, output channels c, repeats n, first stride s).
	for _, blk := range [][4]int{
		{1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2},
		{6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
	} {
		t, c, n, s := blk[0], blk[1], blk[2], blk[3]
		for i := 0; i < n; i++ {
			stride := 1
			if i == 0 {
				stride = s
			}
			id = invertedResidual(b, id, inC, c, t, stride)
			inC = c
		}
	}
	id = b.convBNAct(id, 1280, 1, 1, 0, 1, OpReLU6)
	b.classifierHead(id, cfg)
}

// invertedResidual appends one MobileNet-V2 block: 1x1 expand → 3x3
// depthwise → 1x1 linear project, with a residual add when shapes allow.
func invertedResidual(b *builder, id, inC, outC, expand, stride int) int {
	x := id
	hidden := inC * expand
	if expand != 1 {
		x = b.convBNAct(x, hidden, 1, 1, 0, 1, OpReLU6)
	}
	x = b.convBNAct(x, hidden, 3, stride, 1, hidden, OpReLU6)
	x = b.conv(x, outC, 1, 1, 0, 1)
	x = b.bn(x)
	if stride == 1 && inC == outC {
		x = b.add(x, id)
	}
	return x
}

// mnv3Block is one MobileNet-V3 "bneck" row: kernel size, expanded width,
// output channels, squeeze-and-excite flag, hard-swish flag (else ReLU),
// stride.
type mnv3Block struct {
	kernel, expand, out int
	se, hswish          bool
	stride              int
}

// Torchvision's mobilenet_v3_large / _small bneck tables.
var mnv3Large = []mnv3Block{
	{3, 16, 16, false, false, 1},
	{3, 64, 24, false, false, 2},
	{3, 72, 24, false, false, 1},
	{5, 72, 40, true, false, 2},
	{5, 120, 40, true, false, 1},
	{5, 120, 40, true, false, 1},
	{3, 240, 80, false, true, 2},
	{3, 200, 80, false, true, 1},
	{3, 184, 80, false, true, 1},
	{3, 184, 80, false, true, 1},
	{3, 480, 112, true, true, 1},
	{3, 672, 112, true, true, 1},
	{5, 672, 160, true, true, 2},
	{5, 960, 160, true, true, 1},
	{5, 960, 160, true, true, 1},
}

var mnv3Small = []mnv3Block{
	{3, 16, 16, true, false, 2},
	{3, 72, 24, false, false, 2},
	{3, 88, 24, false, false, 1},
	{5, 96, 40, true, true, 2},
	{5, 240, 40, true, true, 1},
	{5, 240, 40, true, true, 1},
	{5, 120, 48, true, true, 1},
	{5, 144, 48, true, true, 1},
	{5, 288, 96, true, true, 2},
	{5, 576, 96, true, true, 1},
	{5, 576, 96, true, true, 1},
}

// mobileNetV3Builder constructs MobileNet-V3 (Howard et al., ICCV'19 —
// reference [19] of the paper) with SE blocks and hard-swish activations.
func mobileNetV3Builder(blocks []mnv3Block, lastConv, headWidth int) zooFunc {
	return func(b *builder, cfg Config) {
		id := b.input(cfg)
		id = b.convBNAct(id, 16, 3, 2, 1, 1, OpHardSwish)
		inC := 16
		for _, blk := range blocks {
			id = mnv3Bneck(b, id, inC, blk)
			inC = blk.out
		}
		id = b.convBNAct(id, lastConv, 1, 1, 0, 1, OpHardSwish)
		id = b.gap(id)
		id = b.flatten(id)
		id = b.linear(id, headWidth)
		id = b.act(id, OpHardSwish)
		id = b.dropout(id)
		id = b.linear(id, cfg.NumClasses)
		id = b.softmax(id)
		b.output(id)
	}
}

func mnv3Bneck(b *builder, id, inC int, blk mnv3Block) int {
	act := OpReLU
	if blk.hswish {
		act = OpHardSwish
	}
	x := id
	if blk.expand != inC {
		x = b.convBNAct(x, blk.expand, 1, 1, 0, 1, act)
	}
	x = b.convBNAct(x, blk.expand, blk.kernel, blk.stride, blk.kernel/2, blk.expand, act)
	if blk.se {
		x = b.seBlock(x, max(blk.expand/4, 8), OpHardSigmoid)
	}
	x = b.conv(x, blk.out, 1, 1, 0, 1)
	x = b.bn(x)
	if blk.stride == 1 && inC == blk.out {
		x = b.add(x, id)
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
