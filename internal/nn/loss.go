package nn

import "math"

// MSELoss returns the mean squared error between pred and target along with
// dL/dpred. The slices must have equal non-zero length.
func MSELoss(pred, target []float64) (loss float64, grad []float64) {
	if len(pred) != len(target) || len(pred) == 0 {
		panic("nn: MSELoss requires equal non-empty slices")
	}
	n := float64(len(pred))
	grad = make([]float64, len(pred))
	for i, p := range pred {
		d := p - target[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n, grad
}

// HuberLoss is the mean Huber loss with threshold delta — quadratic near
// zero, linear in the tails — which keeps GHN proxy training robust to the
// heavy-tailed FLOP/parameter targets. grad is a slice from a (nil: the
// heap).
func HuberLoss(a *Arena, pred, target []float64, delta float64) (loss float64, grad []float64) {
	if len(pred) != len(target) || len(pred) == 0 {
		panic("nn: HuberLoss requires equal non-empty slices")
	}
	if delta <= 0 {
		panic("nn: HuberLoss delta must be positive")
	}
	n := float64(len(pred))
	grad = a.Floats(len(pred))
	for i, p := range pred {
		d := p - target[i]
		if a := math.Abs(d); a <= delta {
			loss += 0.5 * d * d
			grad[i] = d / n
		} else {
			loss += delta * (a - 0.5*delta)
			if d > 0 {
				grad[i] = delta / n
			} else {
				grad[i] = -delta / n
			}
		}
	}
	return loss / n, grad
}
