package registry

import (
	"context"
	"math"
	"testing"

	"lam/internal/ml"
)

// TestApplyLayout relayouts a loaded model to the exact layout, through
// a quantized one and back, and checks the exact predictions stay
// bit-identical; a quantized relayout of the loaded copy also works
// (the compiled plane is private to it).
func TestApplyLayout(t *testing.T) {
	X := make([][]float64, 150)
	y := make([]float64, 150)
	for i := range X {
		X[i] = []float64{float64(i % 17), float64(i % 5), float64(i % 3)}
		y[i] = X[i][0]*1.5 - X[i][1] + 0.25*X[i][2]
	}
	f := ml.NewExtraTrees(20, 9)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	reg, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveRegressor(f, Meta{Name: "et"}); err != nil {
		t.Fatal(err)
	}
	lm, err := reg.Load("et", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lm.PredictBatch(context.Background(), X)
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []ml.Layout{ml.LayoutImplicitLeft, ml.LayoutQuant8, ml.LayoutImplicitLeft} {
		if err := lm.ApplyLayout(layout); err != nil {
			t.Fatalf("ApplyLayout(%v): %v", layout, err)
		}
		if got, ok := lm.Layout(); !ok || got != layout {
			t.Fatalf("Layout() = %v, %v after ApplyLayout(%v)", got, ok, layout)
		}
		if !layout.Exact() {
			continue
		}
		got, err := lm.PredictBatch(context.Background(), X)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("layout %v row %d: %v != %v", layout, i, got[i], want[i])
			}
		}
	}
	if err := lm.ApplyLayout(ml.LayoutQuant16); err != nil {
		t.Fatalf("ApplyLayout(quant16): %v", err)
	}
	if got, ok := lm.Layout(); !ok || got != ml.LayoutQuant16 {
		t.Fatalf("Layout() = %v, %v after quant16", got, ok)
	}
}

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
	if l, ok := qlm.Layout(); !ok || l != ml.LayoutQuant8 {
		t.Fatalf("quantized version layout %v, %v; want quant8", l, ok)
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
