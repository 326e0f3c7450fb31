// Package dataset describes the training datasets PredictDDL reasons about.
// Only descriptors enter the prediction pipeline — image size, class count,
// on-disk footprint — never pixels, because PredictDDL predicts training
// *time*, not accuracy (§III-B of the paper: the user supplies dataset size
// and type, e.g. "1 GB, CIFAR-10, image classification").
package dataset

import (
	"fmt"
	"sort"

	"predictddl/internal/graph"
)

// Dataset is a descriptor of one training dataset.
type Dataset struct {
	// Name is the canonical dataset identifier, e.g. "cifar10".
	Name string
	// Task is the learning task, e.g. "image-classification".
	Task string
	// NumImages is the number of training samples.
	NumImages int
	// NumClasses is the label-space size.
	NumClasses int
	// SampleH, SampleW, SampleChannels describe one sample tensor.
	SampleH, SampleW, SampleChannels int
	// SizeBytes is the approximate on-disk footprint.
	SizeBytes int64
}

// GraphConfig returns the graph.Config matching this dataset's sample shape
// and label space.
func (d Dataset) GraphConfig() graph.Config {
	return graph.Config{
		InputH:        d.SampleH,
		InputW:        d.SampleW,
		InputChannels: d.SampleChannels,
		NumClasses:    d.NumClasses,
	}
}

// CIFAR10 is the 60,000-image, 10-class, 32x32 dataset (~163 MB) used in the
// paper's evaluation.
func CIFAR10() Dataset {
	return Dataset{
		Name: "cifar10", Task: "image-classification",
		NumImages: 50000, NumClasses: 10,
		SampleH: 32, SampleW: 32, SampleChannels: 3,
		SizeBytes: 163 << 20,
	}
}

// TinyImageNet is the 100,000-image, 200-class, 64x64 subset of ImageNet
// (~250 MB) used in the paper's evaluation.
func TinyImageNet() Dataset {
	return Dataset{
		Name: "tiny-imagenet", Task: "image-classification",
		NumImages: 100000, NumClasses: 200,
		SampleH: 64, SampleW: 64, SampleChannels: 3,
		SizeBytes: 250 << 20,
	}
}

// ImageNet is the full ILSVRC-2012 dataset descriptor, available for
// larger-scale examples (the paper's GHN registry is keyed by dataset type).
func ImageNet() Dataset {
	return Dataset{
		Name: "imagenet", Task: "image-classification",
		NumImages: 1281167, NumClasses: 1000,
		SampleH: 224, SampleW: 224, SampleChannels: 3,
		SizeBytes: 150 << 30,
	}
}

var known = map[string]func() Dataset{
	"cifar10":       CIFAR10,
	"tiny-imagenet": TinyImageNet,
	"imagenet":      ImageNet,
}

// Lookup resolves a dataset descriptor by canonical name.
func Lookup(name string) (Dataset, error) {
	f, ok := known[name]
	if !ok {
		return Dataset{}, fmt.Errorf("dataset: unknown dataset %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names returns the sorted list of known dataset names.
func Names() []string {
	out := make([]string, 0, len(known))
	for n := range known {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
