package lam

import "lam/internal/ml"

// Quantize converts a fitted tree-based regressor into a frozen
// serving-only model with bits-wide (8 or 16) integer thresholds and
// float32 leaves — ~3.5-4x smaller than the 28 B/node SoA form. The result is
// approximate (within one quantization step per split) and cannot be
// refitted; publish it as a new artifact version, never over the exact
// model. The source model is not modified.
func Quantize(r Regressor, bits int) (Regressor, error) { return ml.Quantize(r, bits) }
