package ml

import "sync"

// f64Pool recycles scratch vectors for the per-row work the compound
// estimators do at prediction time (a scaled feature row in Pipeline,
// the augmented meta vector in Stacking, the stacked analytical
// feature in internal/hybrid). Predict must stay safe for concurrent
// use, so the scratch cannot live on the estimator; pooling keeps the
// serve hot path allocation-free in steady state. The pool stores
// *[]float64 (not []float64) so Get/Put never box a slice header.
var f64Pool = sync.Pool{New: func() any { return new([]float64) }}

// GetScratch returns a length-n scratch vector from the shared pool.
// Contents are undefined; release with PutScratch.
func GetScratch(n int) *[]float64 {
	p := f64Pool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

// PutScratch returns a scratch vector to the pool.
func PutScratch(p *[]float64) { f64Pool.Put(p) }

// u16Pool recycles the quantized walk's quantized feature rows
// ([]uint16). Same pointer-boxing discipline as f64Pool.
var u16Pool = sync.Pool{New: func() any { return new([]uint16) }}

func getScratchU16(n int) *[]uint16 {
	p := u16Pool.Get().(*[]uint16)
	if cap(*p) < n {
		*p = make([]uint16, n)
	}
	*p = (*p)[:n]
	return p
}

func putScratchU16(p *[]uint16) { u16Pool.Put(p) }
