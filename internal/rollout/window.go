package rollout

import (
	"math"

	"lam/internal/ml"
)

// The rollout gate compares the candidate's and incumbent's APE windows
// (ml.APEWindow, one sample per scored observation row) at matching
// quantiles, so both sides are judged on the same recent traffic rather
// than on lifetime averages that an old incumbent would win on volume
// alone.

// apeQuantiles returns w's nearest-rank quantiles, NaN for each when
// the window is empty, so no comparison against an empty side passes.
func apeQuantiles(w *ml.APEWindow, qs ...float64) []float64 {
	if out := w.Quantiles(qs...); out != nil {
		return out
	}
	out := make([]float64, len(qs))
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}
