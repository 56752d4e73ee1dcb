package ml

import (
	"math/rand"
	"testing"
)

// keepTreeMajorThreshold restores the row-major/tree-major switchover
// when the test ends, so the test may assign batchTreeMajorMinNodes
// freely (1 forces the tree-major walk, 1<<30 the row-major one).
func keepTreeMajorThreshold(t testing.TB) {
	old := batchTreeMajorMinNodes
	t.Cleanup(func() { batchTreeMajorMinNodes = old })
}

func TestLayoutParseRoundTrip(t *testing.T) {
	for _, l := range []Layout{LayoutDefault, LayoutImplicitLeft, LayoutQuant16, LayoutQuant8} {
		got, err := ParseLayout(l.String())
		if err != nil {
			t.Fatalf("ParseLayout(%q): %v", l.String(), err)
		}
		if got != l {
			t.Fatalf("ParseLayout(%q) = %v, want %v", l.String(), got, l)
		}
	}
	if l, err := ParseLayout("branchless"); err != nil || l != LayoutImplicitLeft {
		t.Fatalf("branchless alias: got %v, %v", l, err)
	}
	if _, err := ParseLayout("zigzag"); err == nil {
		t.Fatal("unknown layout name accepted")
	}
}

// TestParseLayoutRejectsRemoved pins that the names of the deleted
// explicit-child and level-order layouts are no longer accepted, so a
// stale -layout flag fails loudly instead of silently serving the
// default.
func TestParseLayoutRejectsRemoved(t *testing.T) {
	for _, name := range []string{"standard", "level-order"} {
		if l, err := ParseLayout(name); err == nil {
			t.Errorf("ParseLayout(%q) = %v, want an error", name, l)
		}
	}
}

// TestCompiledEquivalenceLayouts is the layout extension of
// TestCompiledEquivalence: across random tree configurations, the
// exact layout applied through SetLayoutOf must produce bit-identical
// predictions to the legacy recursive pointer walk — single vector,
// staged and batch, on both sides of the tree-major threshold (forced
// via batchTreeMajorMinNodes so small fixtures exercise the tree-major
// striding too).
func TestCompiledEquivalenceLayouts(t *testing.T) {
	keepTreeMajorThreshold(t)
	rng := rand.New(rand.NewSource(0x1a7))
	for trial := 0; trial < 8; trial++ {
		n := 30 + rng.Intn(170)
		p := 1 + rng.Intn(6)
		X, y := randomRegression(rng, n, p)
		Xq, _ := randomRegression(rng, 48, p)
		cfg := randomTreeConfig(rng)

		f := &Forest{NTrees: 2 + rng.Intn(8), Tree: cfg, Bootstrap: rng.Intn(2) == 0, Seed: rng.Int63(), Workers: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		refs := make([]*refNode, len(f.trees))
		for i, tr := range f.trees {
			refs[i] = refTree(&tr.nodes)
		}

		g := &GradientBoosting{NStages: 2 + rng.Intn(8), MaxDepth: 1 + rng.Intn(4), Seed: rng.Int63(), Workers: 1}
		if err := g.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		grefs := make([]*refNode, len(g.stages))
		for i, tr := range g.stages {
			grefs[i] = refTree(&tr.nodes)
		}

		layout := LayoutImplicitLeft
		if err := SetLayoutOf(f, layout); err != nil {
			t.Fatalf("forest SetLayoutOf(%v): %v", layout, err)
		}
		if err := SetLayoutOf(g, layout); err != nil {
			t.Fatalf("gbr SetLayoutOf(%v): %v", layout, err)
		}
		if got := f.compiled.Layout(); got != layout {
			t.Fatalf("forest layout = %v, want %v", got, layout)
		}
		out := make([]float64, len(Xq))
		// Both batch strategies: row-major (huge threshold) and
		// tree-major (threshold 1).
		for _, thr := range []int{1 << 30, 1} {
			batchTreeMajorMinNodes = thr
			if err := f.PredictBatchInto(Xq, out); err != nil {
				t.Fatal(err)
			}
			for i, x := range Xq {
				want := refForestPredict(refs, x)
				if !sameBits(out[i], want) {
					t.Fatalf("forest %v thr=%d row %d: %x != recursive %x (cfg %+v)", layout, thr, i, out[i], want, cfg)
				}
			}
			if err := g.PredictBatchInto(Xq, out); err != nil {
				t.Fatal(err)
			}
			for i, x := range Xq {
				want := refBoostedPredict(grefs, g.init, g.rate, x)
				if !sameBits(out[i], want) {
					t.Fatalf("gbr %v thr=%d row %d: %x != recursive %x", layout, thr, i, out[i], want)
				}
			}
		}
		for _, x := range Xq {
			if got, want := f.Predict(x), refForestPredict(refs, x); !sameBits(got, want) {
				t.Fatalf("forest %v single: %x != recursive %x (cfg %+v)", layout, got, want, cfg)
			}
			if got, want := g.Predict(x), refBoostedPredict(grefs, g.init, g.rate, x); !sameBits(got, want) {
				t.Fatalf("gbr %v single: %x != recursive %x", layout, got, want)
			}
			want := refStagedPredict(grefs, g.init, g.rate, x)
			got := g.StagedPredict(x)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("gbr %v stage %d: %x != recursive %x", layout, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRelayoutExactAfterQuant pins the return path from a quantized
// layout: quant16 (and quant8) followed by implicit-left predicts
// bit-identically to the model before it was ever quantized — single
// rows and batches in both orders — because the exact table stays
// allocated under the quantized layouts. Staged prediction keeps
// walking that exact table while a quantized layout is active.
func TestRelayoutExactAfterQuant(t *testing.T) {
	keepTreeMajorThreshold(t)
	rng := rand.New(rand.NewSource(0x9e1a))
	X, y := randomRegression(rng, 200, 4)
	Xq, _ := randomRegression(rng, 40, 4)
	models := []Regressor{
		&Forest{NTrees: 12, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 3, Workers: 1},
		&GradientBoosting{NStages: 12, Seed: 3, Workers: 1},
	}
	for _, m := range models {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		predictAll := func() (single, rowMajor, treeMajor []float64) {
			single = make([]float64, len(Xq))
			for i, x := range Xq {
				single[i] = m.Predict(x)
			}
			rowMajor, treeMajor = make([]float64, len(Xq)), make([]float64, len(Xq))
			batchTreeMajorMinNodes = 1 << 30
			if err := PredictBatchInto(m, Xq, rowMajor, 1); err != nil {
				t.Fatal(err)
			}
			batchTreeMajorMinNodes = 1
			if err := PredictBatchInto(m, Xq, treeMajor, 1); err != nil {
				t.Fatal(err)
			}
			return single, rowMajor, treeMajor
		}
		s0, r0, t0 := predictAll()
		g, _ := m.(*GradientBoosting)
		var staged0 [][]float64
		if g != nil {
			for _, x := range Xq {
				staged0 = append(staged0, g.StagedPredict(x))
			}
		}
		for _, quant := range []Layout{LayoutQuant16, LayoutQuant8} {
			if err := SetLayoutOf(m, quant); err != nil {
				t.Fatal(err)
			}
			if l, _ := LayoutOf(m); l != quant {
				t.Fatalf("%T layout = %v, want %v", m, l, quant)
			}
			// Staged prediction always walks the exact table.
			for i, want := range staged0 {
				got := g.StagedPredict(Xq[i])
				for k := range got {
					if !sameBits(got[k], want[k]) {
						t.Fatalf("gbr under %v row %d stage %d: staged %x, want exact %x", quant, i, k, got[k], want[k])
					}
				}
			}
			if err := SetLayoutOf(m, LayoutImplicitLeft); err != nil {
				t.Fatal(err)
			}
			if l, _ := LayoutOf(m); l != LayoutImplicitLeft {
				t.Fatalf("%T layout = %v after returning to exact", m, l)
			}
			s1, r1, t1 := predictAll()
			for i := range Xq {
				if !sameBits(s1[i], s0[i]) || !sameBits(r1[i], r0[i]) || !sameBits(t1[i], t0[i]) {
					t.Fatalf("%T %v -> implicit-left row %d: single %x row-major %x tree-major %x, want %x %x %x",
						m, quant, i, s1[i], r1[i], t1[i], s0[i], r0[i], t0[i])
				}
			}
		}
	}
}

// TestSetBatchTreeMajorThresholdBoundary pins the switchover contract:
// the two batch strategies are bit-identical at the boundary, and the
// built-in crossover is 4096 nodes.
func TestSetBatchTreeMajorThresholdBoundary(t *testing.T) {
	if batchTreeMajorMinNodes != 4096 {
		t.Fatalf("default tree-major threshold = %d, want 4096", batchTreeMajorMinNodes)
	}
	keepTreeMajorThreshold(t)
	rng := rand.New(rand.NewSource(0x7e57))
	X, y := randomRegression(rng, 300, 4)
	Xq, _ := randomRegression(rng, 64, 4)

	f := &Forest{NTrees: 12, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 3, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	nodes := f.compiled.NumNodes()

	rowMajor := make([]float64, len(Xq))
	treeMajor := make([]float64, len(Xq))
	// Just above the table size: row-major. At the table size (the
	// boundary value where n >= threshold first holds): tree-major.
	batchTreeMajorMinNodes = nodes + 1
	if err := f.PredictBatchInto(Xq, rowMajor); err != nil {
		t.Fatal(err)
	}
	batchTreeMajorMinNodes = nodes
	if err := f.PredictBatchInto(Xq, treeMajor); err != nil {
		t.Fatal(err)
	}
	for i := range rowMajor {
		if !sameBits(rowMajor[i], treeMajor[i]) {
			t.Fatalf("row %d: row-major %x != tree-major %x", i, rowMajor[i], treeMajor[i])
		}
		if want := f.Predict(Xq[i]); !sameBits(rowMajor[i], want) {
			t.Fatalf("row %d: batch %x != single %x", i, rowMajor[i], want)
		}
	}
}

// TestSetDefaultLayout asserts the process default is applied at
// compile time: a quantized default builds the same table Quantize
// does, and an explicit implicit-left default stays bit-identical to
// the built-in one.
func TestSetDefaultLayout(t *testing.T) {
	defer SetDefaultLayout(LayoutDefault)
	rng := rand.New(rand.NewSource(0xd3f))
	X, y := randomRegression(rng, 150, 3)
	Xq, _ := randomRegression(rng, 32, 3)

	f := &Forest{NTrees: 6, Seed: 1, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	want := f.PredictBatch(Xq)
	q, err := Quantize(f, 16)
	if err != nil {
		t.Fatal(err)
	}

	SetDefaultLayout(LayoutQuant16)
	if got := DefaultLayout(); got != LayoutQuant16 {
		t.Fatalf("DefaultLayout = %v, want quant16", got)
	}
	f2 := &Forest{NTrees: 6, Seed: 1, Workers: 1}
	if err := f2.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := f2.compiled.Layout(); got != LayoutQuant16 {
		t.Fatalf("compiled layout = %v, want quant16", got)
	}
	for _, x := range Xq {
		if got, want := f2.Predict(x), q.Predict(x); !sameBits(got, want) {
			t.Fatalf("quant16-default %x != Quantize %x", got, want)
		}
	}

	SetDefaultLayout(LayoutImplicitLeft)
	f3 := &Forest{NTrees: 6, Seed: 1, Workers: 1}
	if err := f3.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := f3.compiled.Layout(); got != LayoutImplicitLeft {
		t.Fatalf("compiled layout = %v, want implicit-left", got)
	}
	for i, x := range Xq {
		if got := f3.Predict(x); !sameBits(got, want[i]) {
			t.Fatalf("row %d: explicit implicit-left default %x != built-in default %x", i, got, want[i])
		}
	}
	SetDefaultLayout(LayoutDefault)
	if got := DefaultLayout(); got != LayoutImplicitLeft {
		t.Fatalf("DefaultLayout after reset = %v, want implicit-left", got)
	}
}

// TestLayoutEstimatorConfig asserts the per-estimator Layout knob is
// honoured at Fit time, including quantized layouts.
func TestLayoutEstimatorConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(0xcf9))
	X, y := randomRegression(rng, 150, 4)

	f := &Forest{NTrees: 5, Seed: 2, Workers: 1, Layout: LayoutQuant8}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := f.compiled.Layout(); got != LayoutQuant8 {
		t.Fatalf("forest layout = %v, want quant8", got)
	}

	g := &GradientBoosting{NStages: 5, Seed: 2, Workers: 1, Layout: LayoutImplicitLeft}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := g.compiled.Layout(); got != LayoutImplicitLeft {
		t.Fatalf("gbr layout = %v, want implicit-left", got)
	}

	bag := &Bagging{
		NewBase: func() Regressor { return NewDecisionTree(TreeConfig{Seed: 3, MaxDepth: 5}) },
		N:       4, Seed: 2, Workers: 1, Layout: LayoutQuant16,
	}
	if err := bag.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if got := bag.compiled.Layout(); got != LayoutQuant16 {
		t.Fatalf("bagging layout = %v, want quant16", got)
	}
	if l, ok := LayoutOf(bag); !ok || l != LayoutQuant16 {
		t.Fatalf("LayoutOf(bagging) = %v, %v", l, ok)
	}
}

// TestSetLayoutOfErrors pins the misuse contract of the structural
// relayout helper.
func TestSetLayoutOfErrors(t *testing.T) {
	if err := SetLayoutOf(&Forest{}, LayoutImplicitLeft); err == nil {
		t.Error("relayout of an unfitted forest accepted")
	}
	lr := &LinearRegression{}
	if err := SetLayoutOf(lr, LayoutImplicitLeft); err != nil {
		t.Errorf("exact layout on a non-tree model should be a no-op, got %v", err)
	}
	if err := SetLayoutOf(lr, LayoutQuant8); err == nil {
		t.Error("quantized layout on a non-tree model accepted")
	}
	rng := rand.New(rand.NewSource(9))
	X, y := randomRegression(rng, 60, 3)
	tr := NewDecisionTree(TreeConfig{Seed: 1, MaxDepth: 4})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := SetLayoutOf(tr, LayoutImplicitLeft); err != nil {
		t.Errorf("exact layout on a bare tree should be a no-op, got %v", err)
	}
	if err := SetLayoutOf(tr, LayoutQuant16); err == nil {
		t.Error("in-place quantization of a bare tree accepted (should direct to Quantize)")
	}
}

// TestLayoutPredictAllocationFree extends the serve-hot-path contract
// to every layout: single and sequential batch prediction stay
// allocation-free in steady state.
func TestLayoutPredictAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	keepTreeMajorThreshold(t)
	rng := rand.New(rand.NewSource(0xa110c))
	X, y := randomRegression(rng, 200, 4)
	Xq, _ := randomRegression(rng, 50, 4)
	out := make([]float64, len(Xq))

	f := &Forest{NTrees: 10, Seed: 1, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, layout := range []Layout{LayoutQuant16, LayoutQuant8, LayoutImplicitLeft} {
		if err := SetLayoutOf(f, layout); err != nil {
			t.Fatal(err)
		}
		for _, thr := range []int{1 << 30, 1} {
			batchTreeMajorMinNodes = thr
			x := Xq[0]
			if allocs := testing.AllocsPerRun(100, func() { f.Predict(x) }); allocs != 0 {
				t.Errorf("%v: Predict allocates %.1f per call, want 0", layout, allocs)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				if err := f.PredictBatchInto(Xq, out); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%v thr=%d: PredictBatchInto allocates %.1f per batch, want 0", layout, thr, allocs)
			}
		}
	}
}
