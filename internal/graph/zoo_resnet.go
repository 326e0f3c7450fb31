package graph

// blockKind selects the residual block flavour.
type blockKind int

const (
	basicBlock blockKind = iota
	bottleneckBlock
)

// resnetBuilder constructs the ResNet family (He et al., CVPR'16) and its
// ResNeXt (grouped) and Wide-ResNet (doubled width) variants. groups and
// widthPerGroup follow torchvision semantics: plain ResNets use groups=1,
// widthPerGroup=64; resnext50_32x4d uses 32/4; wide_resnet50_2 uses 1/128.
func resnetBuilder(kind blockKind, layers []int, groups, widthPerGroup int) zooFunc {
	return func(b *builder, cfg Config) {
		id := b.input(cfg)
		// Stem: 7x7/2 conv + 3x3/2 max pool.
		id = b.convBNAct(id, 64, 7, 2, 3, 1, OpReLU)
		id = b.maxPool(id, 3, 2, 1)

		expansion := 1
		if kind == bottleneckBlock {
			expansion = 4
		}
		inPlanes := 64
		for stage, n := range layers {
			planes := 64 << stage
			stride := 1
			if stage > 0 {
				stride = 2
			}
			for blk := 0; blk < n; blk++ {
				s := 1
				if blk == 0 {
					s = stride
				}
				id, inPlanes = resBlock(b, id, kind, inPlanes, planes, s, expansion, groups, widthPerGroup)
			}
		}
		b.classifierHead(id, cfg)
	}
}

// resBlock appends one residual block reading from id and returns the block
// output node and the new channel count.
func resBlock(b *builder, id int, kind blockKind, inPlanes, planes, stride, expansion, groups, widthPerGroup int) (int, int) {
	outPlanes := planes * expansion
	identity := id

	var body int
	switch kind {
	case basicBlock:
		body = b.convBNAct(id, planes, 3, stride, 1, 1, OpReLU)
		body = b.conv(body, planes, 3, 1, 1, 1)
		body = b.bn(body)
		outPlanes = planes
	case bottleneckBlock:
		width := planes * widthPerGroup / 64 * groups
		body = b.convBNAct(id, width, 1, 1, 0, 1, OpReLU)
		body = b.convBNAct(body, width, 3, stride, 1, groups, OpReLU)
		body = b.conv(body, outPlanes, 1, 1, 0, 1)
		body = b.bn(body)
	}

	if stride != 1 || inPlanes != outPlanes {
		identity = b.conv(id, outPlanes, 1, stride, 0, 1)
		identity = b.bn(identity)
	}
	out := b.add(body, identity)
	out = b.act(out, OpReLU)
	return out, outPlanes
}
