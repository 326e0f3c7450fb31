package ghn

import "predictddl/internal/tensor"

// backward propagates per-node gradients (dL/d final state) and a readout
// gradient through the recorded tape, accumulating parameter gradients.
// gradNodes may be nil when only gradReadout applies and vice versa;
// gradReadout has length 3d and follows the readout layout
// [meanPool ‖ h_input ‖ h_output].
func (g *GHN) backward(st *forwardState, gradNodes [][]float64, gradReadout []float64) {
	n := len(st.h)
	d := g.cfg.HiddenDim
	a := st.arena

	// gbuf[v] holds dL/d(current version of h_v) as we unwind the tape.
	st.gbuf = rows(st.gbuf, n)
	gbuf := st.gbuf
	for v := range gbuf {
		gbuf[v] = a.Floats(d)
		if gradNodes != nil && gradNodes[v] != nil {
			copy(gbuf[v], gradNodes[v])
		}
	}
	if gradReadout != nil {
		inv := 1 / float64(n)
		for v := range gbuf {
			tensor.AxpyInPlace(gbuf[v], gradReadout[:d], inv)
		}
		tensor.AxpyInPlace(gbuf[st.tg.tp.termIn], gradReadout[d:2*d], 1)
		tensor.AxpyInPlace(gbuf[st.tg.tp.termOut], gradReadout[2*d:], 1)
	}

	for i := len(st.tape) - 1; i >= 0; i-- {
		up := &st.tape[i]
		gh := gbuf[up.v]
		if allZero(gh) {
			continue
		}
		gm, ghOld := g.gru.Backward(a, up.gruCache, gh)
		gbuf[up.v] = ghOld

		// Through the operation-dependent gain: m = gain ⊙ raw.
		graw := a.Floats(d)
		gain := g.gainRow(up.op)
		for j := range graw {
			graw[j] = gain[j] * gm[j]
		}
		if g.cfg.Normalize {
			gainGrad := g.opGain.Grad.Row(int(up.op))
			for j := range gainGrad {
				gainGrad[j] += up.raw[j] * gm[j]
			}
		}
		// Mean aggregation: each message output received weight inv (and
		// 1/s for virtual edges).
		for j := range graw {
			graw[j] *= up.inv
		}
		caches := st.caches[up.caches:]
		for k, u := range up.nbrs {
			gu := up.dirMsg.Backward(a, caches[k], graw)
			tensor.AxpyInPlace(gbuf[u], gu, 1)
		}
		caches = caches[len(up.nbrs):]
		for k, e := range up.spNbrs {
			scaled, w := a.Floats(d), 1/e.s
			for j, x := range graw {
				scaled[j] = w * x
			}
			gu := up.dirSp.Backward(a, caches[k], scaled)
			tensor.AxpyInPlace(gbuf[e.u], gu, 1)
		}
	}

	// Remaining buffers are gradients w.r.t. the initial embedded states.
	for v := range gbuf {
		if allZero(gbuf[v]) {
			continue
		}
		g.embed.Backward(a, st.tg.features[v], gbuf[v])
	}
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
