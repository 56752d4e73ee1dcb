package lam

import "lam/internal/ml"

// Layout selects the traversal layout of compiled tree ensembles — the
// raw-speed knob of the inference plane. See internal/ml's Layout for
// details; in short:
//
//   - LayoutImplicitLeft (default): branchless descent over the packed
//     16 B/node implicit-left preorder table. Exact.
//   - LayoutQuant16 / LayoutQuant8: opt-in quantized node tables,
//     ~3.5-4x smaller than the 28 B/node SoA form artifacts store,
//     approximate within one quantization step per split.
type Layout = ml.Layout

// Re-exported layout constants; see Layout.
const (
	LayoutDefault      = ml.LayoutDefault
	LayoutImplicitLeft = ml.LayoutImplicitLeft
	LayoutQuant16      = ml.LayoutQuant16
	LayoutQuant8       = ml.LayoutQuant8
)

// ParseLayout parses a -layout flag value: default, implicit-left
// (alias branchless), quant16, quant8.
func ParseLayout(s string) (Layout, error) { return ml.ParseLayout(s) }

// SetDefaultLayout sets the process-default traversal layout applied to
// every subsequently compiled ensemble (fits and artifact loads alike).
// LayoutDefault restores LayoutImplicitLeft.
func SetDefaultLayout(l Layout) { ml.SetDefaultLayout(l) }

// DefaultLayout returns the current process-default layout.
func DefaultLayout() Layout { return ml.DefaultLayout() }

// SetLayoutOf applies a traversal layout to a fitted estimator's
// compiled tree plane(s), recursing through compound estimators. Not
// concurrency-safe with prediction: apply right after fitting/loading,
// before the model is shared.
func SetLayoutOf(r Regressor, l Layout) error { return ml.SetLayoutOf(r, l) }

// LayoutOf reports the traversal layout of a fitted estimator's
// compiled tree plane, and whether it has one.
func LayoutOf(r Regressor) (Layout, bool) { return ml.LayoutOf(r) }

// Quantize converts a fitted tree-based regressor into a frozen
// serving-only model with bits-wide (8 or 16) integer thresholds and
// float32 leaves — ~3.5-4x smaller than the 28 B/node SoA form. The result is
// approximate (within one quantization step per split) and cannot be
// refitted; publish it as a new artifact version, never over the exact
// model. The source model is not modified.
func Quantize(r Regressor, bits int) (Regressor, error) { return ml.Quantize(r, bits) }
