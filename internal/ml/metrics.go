package ml

import (
	"fmt"
	"math"
	"sort"
)

// MAPE returns the mean absolute percentage error, in percent — the
// paper's headline metric. Samples with zero truth are skipped (all
// responses in this repository are strictly positive execution times).
func MAPE(yTrue, yPred []float64) float64 {
	checkSameLen(yTrue, yPred)
	s, n := 0.0, 0
	for i := range yTrue {
		ape, ok := APE(yTrue[i], yPred[i])
		if !ok {
			continue
		}
		s += ape
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// APE returns one sample's absolute percentage error, in percent, and
// whether it is defined (zero truth has no percentage error — the
// repository's responses are strictly positive execution times, so a
// zero is a degenerate sample, skipped by the aggregate metrics). It is
// the per-sample unit behind MedAPE and the online plane's sliding
// accuracy window, which must score observations one at a time as they
// stream in.
func APE(yTrue, yPred float64) (float64, bool) {
	if yTrue == 0 {
		return 0, false
	}
	return 100 * math.Abs(yPred-yTrue) / math.Abs(yTrue), true
}

// APEWindow is a fixed-capacity ring of APE samples with nearest-rank
// quantiles over the samples it holds: the per-version served-accuracy
// series of the online plane and the candidate/incumbent gate windows
// of the rollout controller. It is unsynchronised; callers guard it
// with their own lock.
type APEWindow struct {
	buf   []float64
	next  int
	count int
}

// NewAPEWindow returns an empty window holding the most recent
// capacity samples (at least 1).
func NewAPEWindow(capacity int) *APEWindow {
	return &APEWindow{buf: make([]float64, max(capacity, 1))}
}

// Add records one sample, overwriting the oldest once full.
func (w *APEWindow) Add(ape float64) {
	w.buf[w.next] = ape
	w.next = (w.next + 1) % len(w.buf)
	if w.count < len(w.buf) {
		w.count++
	}
}

// Reset empties the window.
func (w *APEWindow) Reset() { w.next, w.count = 0, 0 }

// Len returns the number of samples held (0 for a nil window).
func (w *APEWindow) Len() int {
	if w == nil {
		return 0
	}
	return w.count
}

// Quantiles returns the nearest-rank q-quantiles (0..1) of the held
// samples, or nil when the window is empty.
func (w *APEWindow) Quantiles(qs ...float64) []float64 {
	if w.Len() == 0 {
		return nil
	}
	vals := make([]float64, w.count)
	copy(vals, w.buf[:w.count])
	sort.Float64s(vals)
	out := make([]float64, len(qs))
	for i, q := range qs {
		k := int(math.Ceil(q*float64(w.count))) - 1
		out[i] = vals[min(max(k, 0), w.count-1)]
	}
	return out
}

// MedAPE returns the median absolute percentage error, in percent.
func MedAPE(yTrue, yPred []float64) float64 {
	checkSameLen(yTrue, yPred)
	apes := make([]float64, 0, len(yTrue))
	for i := range yTrue {
		ape, ok := APE(yTrue[i], yPred[i])
		if !ok {
			continue
		}
		apes = append(apes, ape)
	}
	if len(apes) == 0 {
		return 0
	}
	sort.Float64s(apes)
	m := len(apes) / 2
	if len(apes)%2 == 1 {
		return apes[m]
	}
	return (apes[m-1] + apes[m]) / 2
}

// MAE returns the mean absolute error.
func MAE(yTrue, yPred []float64) float64 {
	checkSameLen(yTrue, yPred)
	if len(yTrue) == 0 {
		return 0
	}
	s := 0.0
	for i := range yTrue {
		s += math.Abs(yPred[i] - yTrue[i])
	}
	return s / float64(len(yTrue))
}

// RMSE returns the root mean squared error.
func RMSE(yTrue, yPred []float64) float64 {
	checkSameLen(yTrue, yPred)
	if len(yTrue) == 0 {
		return 0
	}
	s := 0.0
	for i := range yTrue {
		d := yPred[i] - yTrue[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(yTrue)))
}

// R2 returns the coefficient of determination. A constant-truth vector
// yields R2 = 0 by convention unless predictions are exact.
func R2(yTrue, yPred []float64) float64 {
	checkSameLen(yTrue, yPred)
	if len(yTrue) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range yTrue {
		mean += v
	}
	mean /= float64(len(yTrue))
	ssRes, ssTot := 0.0, 0.0
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		ssRes += d * d
		m := yTrue[i] - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

func checkSameLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ml: metric on mismatched lengths %d vs %d", len(a), len(b)))
	}
}
