package registry

import (
	"context"
	"math"
	"testing"

	"lam/internal/ml"
)

// TestQuantizedModelRegistryRoundTrip publishes a quantized model as a
// new version (the lam-model quantize flow) and checks the reloaded
// copy predicts bit-identically to the in-memory quantized model while
// the exact source version stays intact.
func TestQuantizedModelRegistryRoundTrip(t *testing.T) {
	X := make([][]float64, 150)
	y := make([]float64, 150)
	for i := range X {
		X[i] = []float64{float64(i % 17), float64(i % 5)}
		y[i] = X[i][0] - 2*X[i][1]
	}
	f := ml.NewExtraTrees(10, 4)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(f, Meta{Name: "m"}); err != nil {
		t.Fatal(err)
	}
	q, err := ml.Quantize(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := reg.SaveRegressor(q, Meta{Name: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 2 {
		t.Fatalf("quantized publish got version %d, want 2", meta.Version)
	}

	qlm, err := reg.Load("m", 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qlm.PredictBatch(context.Background(), X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if math.Float64bits(got[i]) != math.Float64bits(q.Predict(X[i])) {
			t.Fatalf("row %d: reloaded quantized model diverges", i)
		}
	}
	if qm, ok := qlm.Regressor().(*ml.QuantizedModel); !ok || qm.Bits() != 8 {
		t.Fatalf("quantized version loaded as %T, want an 8-bit *ml.QuantizedModel", qlm.Regressor())
	}

	// The exact source version still loads and predicts exactly.
	lm, err := reg.Load("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := lm.PredictBatch(context.Background(), X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if math.Float64bits(exact[i]) != math.Float64bits(f.Predict(X[i])) {
			t.Fatalf("row %d: exact version diverges after quantized publish", i)
		}
	}
}
