package graph

// densenetBuilder constructs the DenseNet family (Huang et al., CVPR'17).
// Each dense layer computes bn→relu→1x1 conv (bottleneck to 4·growth)
// →bn→relu→3x3 conv (growth channels) and concatenates its output with its
// input; transitions halve channels with a 1x1 conv and 2x2 average pool.
func densenetBuilder(growth, initFeatures int, blockLayers []int) zooFunc {
	return func(b *builder, cfg Config) {
		id := b.input(cfg)
		id = b.convBNAct(id, initFeatures, 7, 2, 3, 1, OpReLU)
		id = b.maxPool(id, 3, 2, 1)
		channels := initFeatures
		for bi, n := range blockLayers {
			for l := 0; l < n; l++ {
				id = denseLayer(b, id, growth)
				channels += growth
			}
			if bi < len(blockLayers)-1 {
				// Transition: compress to half the channels, downsample 2x.
				channels /= 2
				id = b.bn(id)
				id = b.act(id, OpReLU)
				id = b.conv(id, channels, 1, 1, 0, 1)
				id = b.avgPool(id, 2, 2, 0)
			}
		}
		id = b.bn(id)
		id = b.act(id, OpReLU)
		b.classifierHead(id, cfg)
	}
}

func denseLayer(b *builder, id, growth int) int {
	x := b.bn(id)
	x = b.act(x, OpReLU)
	x = b.conv(x, 4*growth, 1, 1, 0, 1)
	x = b.bn(x)
	x = b.act(x, OpReLU)
	x = b.conv(x, growth, 3, 1, 1, 1)
	return b.concat(id, x)
}
