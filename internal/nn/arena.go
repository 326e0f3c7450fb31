package nn

// Arena is a bump allocator of zeroed []float64 for the vectors one
// Forward/Backward round produces: gate and activation buffers, cached
// pre-activations, input gradients. A training loop owns one Arena per
// goroutine, calls Reset at the top of every step, and threads it through
// Forward and Backward; after a few steps the block has grown to the
// largest step seen and the loop stops allocating.
//
// Ownership rule (the training-side twin of "no pooled buffer escapes
// Embed", DESIGN.md §10): a slice handed out by Floats is valid until the
// next Reset and no longer. Whatever must survive the step — gradients,
// losses, an embedding — is copied out first.
//
// A nil *Arena allocates from the heap, so callers that run a module once
// (gradient checks, the tape-path embedding oracle) pass nil and need no
// arena. An Arena is not safe for concurrent use.
type Arena struct {
	block []float64
	used  int
}

// arenaMinBlock is the first block's size in float64s (64 KiB): large
// enough that a small network's step fits without regrowing, small enough
// to cost nothing when it does not.
const arenaMinBlock = 8 << 10

// Floats returns a zeroed slice of n float64s whose capacity is also n, so
// an append can never run into the next allocation.
func (a *Arena) Floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.used+n > len(a.block) {
		// Start a bigger block. Slices handed out from the old one keep it
		// alive until they are dropped; after the next Reset only this one
		// remains.
		size := 2 * len(a.block)
		if size < arenaMinBlock {
			size = arenaMinBlock
		}
		if size < n {
			size = n
		}
		a.block = make([]float64, size)
		a.used = 0
	}
	s := a.block[a.used : a.used+n : a.used+n]
	a.used += n
	clear(s)
	return s
}

// Reset makes the whole block available again. Every slice handed out
// since the previous Reset is dead from here on.
func (a *Arena) Reset() {
	if a != nil {
		a.used = 0
	}
}
