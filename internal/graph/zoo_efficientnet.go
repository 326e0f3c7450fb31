package graph

import "math"

// efficientNetBuilder constructs the EfficientNet family (Tan & Le, ICML'19
// — reference [35] of the paper) via compound scaling of the B0 backbone:
// widthMult scales channel counts (rounded to multiples of 8) and depthMult
// scales per-stage repeat counts (rounded up).
func efficientNetBuilder(widthMult, depthMult float64) zooFunc {
	// B0 stages: expansion, channels, repeats, stride, kernel.
	type stage struct{ expand, channels, repeats, stride, kernel int }
	stages := []stage{
		{1, 16, 1, 1, 3},
		{6, 24, 2, 2, 3},
		{6, 40, 2, 2, 5},
		{6, 80, 3, 2, 3},
		{6, 112, 3, 1, 5},
		{6, 192, 4, 2, 5},
		{6, 320, 1, 1, 3},
	}
	return func(b *builder, cfg Config) {
		id := b.input(cfg)
		stem := roundChannels(32, widthMult)
		id = b.convBNAct(id, stem, 3, 2, 1, 1, OpSwish)
		inC := stem
		for _, st := range stages {
			outC := roundChannels(st.channels, widthMult)
			repeats := int(math.Ceil(float64(st.repeats) * depthMult))
			for i := 0; i < repeats; i++ {
				stride := 1
				if i == 0 {
					stride = st.stride
				}
				id = mbConv(b, id, inC, outC, st.expand, st.kernel, stride)
				inC = outC
			}
		}
		head := roundChannels(1280, widthMult)
		id = b.convBNAct(id, head, 1, 1, 0, 1, OpSwish)
		b.classifierHead(id, cfg)
	}
}

// roundChannels applies the MobileNet/EfficientNet channel-rounding rule:
// scale, then round to the nearest multiple of 8 without dropping more than
// 10%.
func roundChannels(c int, mult float64) int {
	if mult == 1 {
		return c
	}
	v := mult * float64(c)
	newC := int(v+4) / 8 * 8
	if newC < 8 {
		newC = 8
	}
	if float64(newC) < 0.9*v {
		newC += 8
	}
	return newC
}

// mbConv appends one MBConv block: 1x1 expand → kxk depthwise → SE (ratio
// 0.25 of the block input) → 1x1 project, with a residual when shapes allow.
func mbConv(b *builder, id, inC, outC, expand, kernel, stride int) int {
	x := id
	hidden := inC * expand
	if expand != 1 {
		x = b.convBNAct(x, hidden, 1, 1, 0, 1, OpSwish)
	}
	x = b.convBNAct(x, hidden, kernel, stride, kernel/2, hidden, OpSwish)
	x = b.seBlock(x, max(inC/4, 8), OpSigmoid)
	x = b.conv(x, outC, 1, 1, 0, 1)
	x = b.bn(x)
	if stride == 1 && inC == outC {
		x = b.add(x, id)
	}
	return x
}
