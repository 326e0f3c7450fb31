package graph

import (
	"fmt"

	"predictddl/internal/tensor"
)

// RandomSpec bounds the DARTS-style random-architecture generator used to
// train the GHN (GHN-2 was trained on 10⁶ synthetic DARTS architectures;
// we sample from an equivalent primitive-op distribution).
type RandomSpec struct {
	// MinStages/MaxStages bound the number of resolution stages.
	MinStages, MaxStages int
	// MinBlocks/MaxBlocks bound the blocks per stage.
	MinBlocks, MaxBlocks int
	// MinChannels is the stem width; channels roughly double per stage.
	MinChannels int
}

// DefaultRandomSpec returns the generator bounds used for GHN training.
// The bounds are wide on purpose: embeddings are consumed by a regressor
// that must interpolate across the zoo's full complexity range (0.5M–140M
// parameters), so the synthetic distribution has to cover it.
func DefaultRandomSpec() RandomSpec {
	return RandomSpec{MinStages: 2, MaxStages: 5, MinBlocks: 1, MaxBlocks: 5, MinChannels: 16}
}

// RandomGraph samples a random architecture with default bounds.
func RandomGraph(rng *tensor.RNG, cfg Config) *Graph {
	return RandomGraphSpec(rng, cfg, DefaultRandomSpec())
}

// RandomGraphSpec samples a random architecture within spec. The block
// vocabulary mirrors DARTS primitives: plain/dilated-style convolutions of
// several kernel sizes, depthwise-separable convolutions, residual blocks,
// multi-branch (inception-like) blocks, squeeze-and-excite, and pooling.
// The result always passes Validate.
func RandomGraphSpec(rng *tensor.RNG, cfg Config, spec RandomSpec) *Graph {
	name := fmt.Sprintf("random-%d", rng.Intn(1<<30))
	g, err := build(name, cfg.withDefaults(), func(b *builder, cfg Config) {
		randomArch(b, rng, cfg, spec)
	})
	if err != nil {
		// The generator only composes valid primitives; a failure here is a
		// bug in the generator itself.
		panic(fmt.Sprintf("graph: random generator produced invalid graph: %v", err))
	}
	return g
}

// randomArch describes one sampled architecture to b.
func randomArch(b *builder, rng *tensor.RNG, cfg Config, spec RandomSpec) {
	id := b.input(cfg)

	// Stem width spans 16–128 so sampled complexities cover the zoo's
	// range instead of clustering at toy scale.
	channels := spec.MinChannels * (1 << rng.Intn(4))
	id = b.convBNAct(id, channels, 3, 1, 1, 1, OpReLU)

	stages := spec.MinStages + rng.Intn(spec.MaxStages-spec.MinStages+1)
	for s := 0; s < stages; s++ {
		blocks := spec.MinBlocks + rng.Intn(spec.MaxBlocks-spec.MinBlocks+1)
		for blk := 0; blk < blocks; blk++ {
			id, channels = randomBlock(b, rng, id, channels)
		}
		// Downsample between stages while spatial extent remains.
		if _, h, _ := b.shape(id); h > 2 && s < stages-1 {
			if rng.Float64() < 0.5 {
				id = b.maxPool(id, 3, 2, 1)
			} else {
				id = b.avgPool(id, 3, 2, 1)
			}
			if rng.Float64() < 0.5 {
				channels *= 2
			} else {
				channels = channels * 3 / 2
			}
			id = b.convBNAct(id, channels, 1, 1, 0, 1, OpReLU)
		}
	}
	// Some architectures (VGG, AlexNet) carry parameter-heavy FC tails;
	// sample that mode too so the embedding learns FC-dominated budgets.
	if rng.Float64() < 0.3 {
		width := 512 << rng.Intn(4) // 512–4096
		id = b.gap(id)
		id = b.flatten(id)
		id = b.linear(id, width)
		id = b.act(id, OpReLU)
		id = b.dropout(id)
		id = b.linear(id, cfg.NumClasses)
		id = b.softmax(id)
		b.output(id)
	} else {
		b.classifierHead(id, cfg)
	}
}

// randomBlock appends one randomly chosen block and returns the new tail
// node and channel count.
func randomBlock(b *builder, rng *tensor.RNG, id, channels int) (int, int) {
	acts := []OpType{OpReLU, OpReLU6, OpSwish, OpHardSwish, OpTanh}
	act := acts[rng.Intn(len(acts))]
	kernels := []int{1, 3, 5, 7}
	k := kernels[rng.Intn(len(kernels))]

	switch rng.Intn(6) {
	case 0: // plain conv block
		out := channels + rng.Intn(2)*channels/2
		if out < 1 {
			out = channels
		}
		return b.convBNAct(id, out, k, 1, k/2, 1, act), out
	case 1: // depthwise-separable conv
		x := b.convBNAct(id, channels, k, 1, k/2, channels, act)
		out := channels + rng.Intn(2)*channels/4
		x = b.convBNAct(x, out, 1, 1, 0, 1, act)
		return x, out
	case 2: // residual block
		x := b.convBNAct(id, channels, 3, 1, 1, 1, act)
		x = b.conv(x, channels, 3, 1, 1, 1)
		x = b.bn(x)
		x = b.add(x, id)
		return b.act(x, act), channels
	case 3: // two-branch inception-like block
		half := channels / 2
		if half < 1 {
			half = 1
		}
		b1 := b.convBNAct(id, half, 1, 1, 0, 1, act)
		b2 := b.convBNAct(id, half, k, 1, k/2, 1, act)
		return b.concat(b1, b2), 2 * half
	case 4: // squeeze-and-excite on top of a conv
		x := b.convBNAct(id, channels, 3, 1, 1, 1, act)
		return b.seBlock(x, max(channels/4, 4), OpSigmoid), channels
	default: // grouped conv block
		groups := 1
		for _, g := range []int{8, 4, 2} {
			if channels%g == 0 {
				groups = g
				break
			}
		}
		return b.convBNAct(id, channels, 3, 1, 1, groups, act), channels
	}
}
