package graph

import (
	"fmt"
	"sort"
)

// zooFunc describes one architecture to b for the given input config.
type zooFunc func(b *builder, cfg Config)

// registry maps the 31 torchvision-equivalent architecture names the paper
// trains (§IV-A2) to their definitions; the key is the graph's Name.
var registry = map[string]zooFunc{
	"alexnet": buildAlexNet,

	"vgg11": vggBuilder(vggA),
	"vgg13": vggBuilder(vggB),
	"vgg16": vggBuilder(vggD),
	"vgg19": vggBuilder(vggE),

	"resnet18":  resnetBuilder(basicBlock, []int{2, 2, 2, 2}, 1, 64),
	"resnet34":  resnetBuilder(basicBlock, []int{3, 4, 6, 3}, 1, 64),
	"resnet50":  resnetBuilder(bottleneckBlock, []int{3, 4, 6, 3}, 1, 64),
	"resnet101": resnetBuilder(bottleneckBlock, []int{3, 4, 23, 3}, 1, 64),
	"resnet152": resnetBuilder(bottleneckBlock, []int{3, 8, 36, 3}, 1, 64),

	"resnext50_32x4d":  resnetBuilder(bottleneckBlock, []int{3, 4, 6, 3}, 32, 4),
	"resnext101_32x8d": resnetBuilder(bottleneckBlock, []int{3, 4, 23, 3}, 32, 8),
	"wide_resnet50_2":  resnetBuilder(bottleneckBlock, []int{3, 4, 6, 3}, 1, 128),
	"wide_resnet101_2": resnetBuilder(bottleneckBlock, []int{3, 4, 23, 3}, 1, 128),

	"densenet121": densenetBuilder(32, 64, []int{6, 12, 24, 16}),
	"densenet161": densenetBuilder(48, 96, []int{6, 12, 36, 24}),
	"densenet169": densenetBuilder(32, 64, []int{6, 12, 32, 32}),
	"densenet201": densenetBuilder(32, 64, []int{6, 12, 48, 32}),

	"mobilenet_v2":       buildMobileNetV2,
	"mobilenet_v3_small": mobileNetV3Builder(mnv3Small, 576, 1024),
	"mobilenet_v3_large": mobileNetV3Builder(mnv3Large, 960, 1280),

	"squeezenet1_0": squeezenetBuilder(true),
	"squeezenet1_1": squeezenetBuilder(false),

	"efficientnet_b0": efficientNetBuilder(1.0, 1.0),
	"efficientnet_b1": efficientNetBuilder(1.0, 1.1),
	"efficientnet_b2": efficientNetBuilder(1.1, 1.2),
	"efficientnet_b3": efficientNetBuilder(1.2, 1.4),
	"efficientnet_b4": efficientNetBuilder(1.4, 1.8),
	"efficientnet_b5": efficientNetBuilder(1.6, 2.2),
	"efficientnet_b6": efficientNetBuilder(1.8, 2.6),
	"efficientnet_b7": efficientNetBuilder(2.0, 3.1),
}

// Zoo returns the sorted names of all available architectures.
func Zoo() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build instantiates the named architecture. Unknown names return an error
// listing is the zoo; cfg fields left zero take CIFAR-10 defaults.
func Build(name string, cfg Config) (*Graph, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("graph: unknown architecture %q (have %d models, see Zoo())", name, len(registry))
	}
	return build(name, cfg.withDefaults(), f)
}

// MustBuild is Build for statically known names; it panics on error.
func MustBuild(name string, cfg Config) *Graph {
	g, err := Build(name, cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// buildAlexNet reproduces torchvision's AlexNet feature extractor and
// classifier, adapted to arbitrary input sizes via adaptive pooling.
func buildAlexNet(b *builder, cfg Config) {
	id := b.input(cfg)
	id = b.conv(id, 64, 11, 4, 2, 1)
	id = b.act(id, OpReLU)
	id = b.maxPool(id, 3, 2, 0)
	id = b.conv(id, 192, 5, 1, 2, 1)
	id = b.act(id, OpReLU)
	id = b.maxPool(id, 3, 2, 0)
	id = b.conv(id, 384, 3, 1, 1, 1)
	id = b.act(id, OpReLU)
	id = b.conv(id, 256, 3, 1, 1, 1)
	id = b.act(id, OpReLU)
	id = b.conv(id, 256, 3, 1, 1, 1)
	id = b.act(id, OpReLU)
	id = b.maxPool(id, 3, 2, 0)
	id = b.adaptiveAvgPool(id, 6, 6)
	id = b.flatten(id)
	id = b.dropout(id)
	id = b.linear(id, 4096)
	id = b.act(id, OpReLU)
	id = b.dropout(id)
	id = b.linear(id, 4096)
	id = b.act(id, OpReLU)
	id = b.linear(id, cfg.NumClasses)
	id = b.softmax(id)
	b.output(id)
}

// VGG configurations: positive numbers are conv output channels, -1 is a
// 2x2 max pool ("M" in the original paper).
var (
	vggA = []int{64, -1, 128, -1, 256, 256, -1, 512, 512, -1, 512, 512, -1}
	vggB = []int{64, 64, -1, 128, 128, -1, 256, 256, -1, 512, 512, -1, 512, 512, -1}
	vggD = []int{64, 64, -1, 128, 128, -1, 256, 256, 256, -1, 512, 512, 512, -1, 512, 512, 512, -1}
	vggE = []int{64, 64, -1, 128, 128, -1, 256, 256, 256, 256, -1, 512, 512, 512, 512, -1, 512, 512, 512, 512, -1}
)

func vggBuilder(layers []int) zooFunc {
	return func(b *builder, cfg Config) {
		id := b.input(cfg)
		for _, l := range layers {
			if l == -1 {
				id = b.maxPool(id, 2, 2, 0)
				continue
			}
			id = b.conv(id, l, 3, 1, 1, 1)
			id = b.bn(id)
			id = b.act(id, OpReLU)
		}
		id = b.adaptiveAvgPool(id, 7, 7)
		id = b.flatten(id)
		id = b.linear(id, 4096)
		id = b.act(id, OpReLU)
		id = b.dropout(id)
		id = b.linear(id, 4096)
		id = b.act(id, OpReLU)
		id = b.dropout(id)
		id = b.linear(id, cfg.NumClasses)
		id = b.softmax(id)
		b.output(id)
	}
}
