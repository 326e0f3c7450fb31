package graph

// squeezenetBuilder constructs SqueezeNet 1.0 (v10=true) or 1.1 (v10=false)
// from fire modules: a 1x1 squeeze conv followed by parallel 1x1 and 3x3
// expand convs whose outputs are concatenated.
func squeezenetBuilder(v10 bool) zooFunc {
	return func(b *builder, cfg Config) {
		id := b.input(cfg)
		if v10 {
			id = b.conv(id, 96, 7, 2, 0, 1)
			id = b.act(id, OpReLU)
			id = b.maxPool(id, 3, 2, 0)
			id = fire(b, id, 16, 64, 64)
			id = fire(b, id, 16, 64, 64)
			id = fire(b, id, 32, 128, 128)
			id = b.maxPool(id, 3, 2, 0)
			id = fire(b, id, 32, 128, 128)
			id = fire(b, id, 48, 192, 192)
			id = fire(b, id, 48, 192, 192)
			id = fire(b, id, 64, 256, 256)
			id = b.maxPool(id, 3, 2, 0)
			id = fire(b, id, 64, 256, 256)
		} else {
			id = b.conv(id, 64, 3, 2, 0, 1)
			id = b.act(id, OpReLU)
			id = b.maxPool(id, 3, 2, 0)
			id = fire(b, id, 16, 64, 64)
			id = fire(b, id, 16, 64, 64)
			id = b.maxPool(id, 3, 2, 0)
			id = fire(b, id, 32, 128, 128)
			id = fire(b, id, 32, 128, 128)
			id = b.maxPool(id, 3, 2, 0)
			id = fire(b, id, 48, 192, 192)
			id = fire(b, id, 48, 192, 192)
			id = fire(b, id, 64, 256, 256)
			id = fire(b, id, 64, 256, 256)
		}
		// SqueezeNet classifies with a final 1x1 conv instead of an FC layer.
		id = b.dropout(id)
		id = b.conv(id, cfg.NumClasses, 1, 1, 0, 1)
		id = b.act(id, OpReLU)
		id = b.gap(id)
		id = b.flatten(id)
		id = b.softmax(id)
		b.output(id)
	}
}

func fire(b *builder, id, squeeze, expand1, expand3 int) int {
	s := b.conv(id, squeeze, 1, 1, 0, 1)
	s = b.act(s, OpReLU)
	e1 := b.conv(s, expand1, 1, 1, 0, 1)
	e1 = b.act(e1, OpReLU)
	e3 := b.conv(s, expand3, 3, 1, 1, 1)
	e3 = b.act(e3, OpReLU)
	return b.concat(e1, e3)
}
