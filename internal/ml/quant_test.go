package ml

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refQuantPredict is the executable specification of the quantized
// walk: quantize the row and every threshold with quantizeCode, walk
// the member trees' exact SoA tables recursively with integer compares,
// read leaves through float32. The table-driven quantized fold must
// reproduce it bit for bit — this is the exactness half of the
// quantization pin; the error-bound half is TestQuantizeErrorBound.
func refQuantPredict(trees []*DecisionTree, q *quantEnsemble, x []float64) float64 {
	maxQ := q.maxQ()
	qx := make([]uint16, q.nFeatures)
	for f := range qx {
		qx[f] = uint16(quantizeCode(x[f], q.lo[f], q.scale[f], maxQ))
	}
	var walk func(c *CompiledTree, i int32) float64
	walk = func(c *CompiledTree, i int32) float64 {
		f := c.feature[i]
		if f < 0 {
			return float64(float32(c.value[i]))
		}
		qt := uint16(quantizeCode(c.threshold[i], q.lo[f], q.scale[f], maxQ))
		if qx[f] <= qt {
			return walk(c, i+1)
		}
		return walk(c, c.right[i])
	}
	if q.combine == combineBoosted {
		out := q.init
		for _, t := range trees {
			out += q.rate * walk(&t.nodes, 0)
		}
		return out
	}
	s := 0.0
	for _, t := range trees {
		s += walk(&t.nodes, 0)
	}
	return s / float64(len(trees))
}

// quantStep returns feature f's quantization step (the width of one
// code bucket), or 0 when the feature cannot misroute (never split on,
// or a single threshold coded with infinite scale).
func quantStep(q *quantEnsemble, f int) float64 {
	s := q.scale[f]
	if s <= 0 || s == math.MaxFloat64 {
		return 0
	}
	return 1 / s
}

// safeRow reports whether x routes identically through the exact and
// quantized tables: quantization can only flip a split whose threshold
// t satisfies x[f] in (t, t+step] (left routing is always preserved —
// floor is monotone), so a row whose exact root-to-leaf path in every
// tree stays clear of that band is exact up to float32 leaf rounding.
// Only visited nodes matter — a band elsewhere in the tree is never
// compared against.
func safeRow(trees []*DecisionTree, q *quantEnsemble, x []float64) bool {
	for _, tr := range trees {
		c := &tr.nodes
		i := int32(0)
		for {
			f := c.feature[i]
			if f < 0 {
				break
			}
			t := c.threshold[i]
			d := x[f] - t
			if d > 0 && d <= quantStep(q, int(f)) {
				return false
			}
			if x[f] <= t {
				i++
			} else {
				i = c.right[i]
			}
		}
	}
	return true
}

// TestQuantizedMatchesReference pins the quantized table against the
// recursive integer-compare reference, bit for bit, across both widths
// and both combine modes, single and batch, on both sides of the
// tree-major threshold.
func TestQuantizedMatchesReference(t *testing.T) {
	keepTreeMajorThreshold(t)
	rng := rand.New(rand.NewSource(0x9a17))
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(160)
		p := 1 + rng.Intn(5)
		X, y := randomRegression(rng, n, p)
		Xq, _ := randomRegression(rng, 40, p)
		cfg := randomTreeConfig(rng)

		f := &Forest{NTrees: 2 + rng.Intn(6), Tree: cfg, Seed: rng.Int63(), Workers: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		g := &GradientBoosting{NStages: 2 + rng.Intn(6), MaxDepth: 1 + rng.Intn(4), Seed: rng.Int63(), Workers: 1}
		if err := g.Fit(X, y); err != nil {
			t.Fatal(err)
		}

		for _, bits := range []int{16, 8} {
			for _, src := range []struct {
				name  string
				r     Regressor
				trees []*DecisionTree
			}{{"forest", f, f.trees}, {"gbr", g, g.stages}} {
				qr, err := Quantize(src.r, bits)
				if err != nil {
					t.Fatalf("%s/%d: %v", src.name, bits, err)
				}
				qm := qr.(*QuantizedModel)
				if qm.Bits() != bits {
					t.Fatalf("%s: Bits() = %d, want %d", src.name, qm.Bits(), bits)
				}
				out := make([]float64, len(Xq))
				for _, thr := range []int{1 << 30, 1} {
					batchTreeMajorMinNodes = thr
					if err := qm.PredictBatchInto(Xq, out); err != nil {
						t.Fatal(err)
					}
					for i, x := range Xq {
						want := refQuantPredict(src.trees, qm.q, x)
						if !sameBits(out[i], want) {
							t.Fatalf("%s/%d thr=%d row %d: batch %x != reference %x", src.name, bits, thr, i, out[i], want)
						}
						if got := qm.Predict(x); !sameBits(got, want) {
							t.Fatalf("%s/%d row %d: single %x != reference %x", src.name, bits, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestQuantizeErrorBound is the error-bound property test the ISSUE
// pins the approximate modes on: on rows that sit clear of every
// split's one-quantization-step band (see safeRow), the quantized
// prediction must match the exact model within a configured relative
// bound — the residual being pure float32 leaf rounding. Rows inside a
// band legitimately take the other branch, so no pointwise bound can
// exist for them; the geometric guarantee (threshold moves by at most
// one step) is exactly what safeRow encodes.
func TestQuantizeErrorBound(t *testing.T) {
	const relBound = 1e-5
	rng := rand.New(rand.NewSource(0xe88))
	for trial := 0; trial < 4; trial++ {
		n := 60 + rng.Intn(140)
		p := 2 + rng.Intn(4)
		X, y := randomRegression(rng, n, p)
		// Continuous (non-grid) query rows: some land inside bands and
		// are skipped; most must be safe and tightly bounded.
		Xq := make([][]float64, 200)
		for i := range Xq {
			Xq[i] = make([]float64, p)
			for j := range Xq[i] {
				Xq[i][j] = rng.NormFloat64() * 2
			}
		}

		f := &Forest{NTrees: 4 + rng.Intn(6), Tree: TreeConfig{Splitter: RandomSplitter, Seed: rng.Int63()}, Seed: rng.Int63(), Workers: 1}
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for _, bits := range []int{16, 8} {
			qr, err := Quantize(f, bits)
			if err != nil {
				t.Fatal(err)
			}
			qm := qr.(*QuantizedModel)
			safe, maxRel := 0, 0.0
			for _, x := range Xq {
				if !safeRow(f.trees, qm.q, x) {
					continue
				}
				safe++
				want := f.Predict(x)
				got := qm.Predict(x)
				rel := math.Abs(got-want) / math.Max(1, math.Abs(want))
				if rel > maxRel {
					maxRel = rel
				}
			}
			if safe < len(Xq)/4 {
				t.Fatalf("%d-bit: only %d/%d rows clear the quantization bands — fixture too coarse to test the bound", bits, safe, len(Xq))
			}
			if maxRel > relBound {
				t.Errorf("%d-bit: max relative error %.3g on safe rows exceeds bound %.3g", bits, maxRel, relBound)
			}
		}
	}
}

// TestQuantizedTableShrink pins the footprint claim. A binary tree is
// always ~half leaves (L = I + 1), so per node the 16-bit table spends
// ~8 bytes (feature 2 + next 2 + qthr 2 + ~half a float32 leaf 2) and
// the 8-bit one ~7, against 28 in the SoA form artifacts store —
// structural ratios of ~3.5x and ~4x (about 2x against the 16-byte
// exact walk records). The floors leave headroom for the per-tree and per-feature
// side tables.
func TestQuantizedTableShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5123))
	X, y := randomRegression(rng, 800, 5)
	f := &Forest{NTrees: 30, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 4, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	exact := exactTableBytes(f.compiled)
	for _, tc := range []struct {
		bits  int
		floor float64
	}{{16, 3.3}, {8, 3.8}} {
		qr, err := Quantize(f, tc.bits)
		if err != nil {
			t.Fatal(err)
		}
		qb := qr.(*QuantizedModel).TableBytes()
		if ratio := float64(exact) / float64(qb); ratio < tc.floor {
			t.Errorf("%d-bit table shrink %.2fx (exact %d B, quant %d B), want >= %.1fx", tc.bits, ratio, exact, qb, tc.floor)
		}
	}
}

// TestQuantizedModelRoundTrip pins the lamb1 v2 persistence of the
// quantized kind: binary round trip is bit-identical, version-1
// decoders reject the kind, and jsonv1 refuses to encode it.
func TestQuantizedModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6d4))
	X, y := randomRegression(rng, 200, 4)
	Xq, _ := randomRegression(rng, 40, 4)
	g := &GradientBoosting{NStages: 10, Seed: 6, Workers: 1}
	if err := g.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{16, 8} {
		qr, err := Quantize(g, bits)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := AppendBinary(nil, qr)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
		qb, ok := back.(*QuantizedModel)
		if !ok {
			t.Fatalf("round trip decoded %T", back)
		}
		if qb.Bits() != bits || qb.NumFeatures() != qr.(*QuantizedModel).NumFeatures() {
			t.Fatalf("round trip lost shape: bits %d features %d", qb.Bits(), qb.NumFeatures())
		}
		for _, x := range Xq {
			if got, want := qb.Predict(x), qr.(*QuantizedModel).Predict(x); !sameBits(got, want) {
				t.Fatalf("round trip: %x != %x", got, want)
			}
		}
		if _, err := DecodeBinaryVersion(buf, BinaryVersion1); err == nil {
			t.Error("version-1 decoder accepted a quantized payload")
		}
		if _, err := encodeModel(qr); err == nil || !strings.Contains(err.Error(), "binary codec") {
			t.Errorf("jsonv1 encode of a quantized model: %v, want a use-the-binary-codec error", err)
		}
		stats := StatsOf(qr)
		wantKind := "quant16"
		if bits == 8 {
			wantKind = "quant8"
		}
		if stats.Kind != wantKind || stats.Quant != wantKind || stats.Trees != g.NumStages() {
			t.Errorf("StatsOf = %+v, want kind/quant %s with %d trees", stats, wantKind, g.NumStages())
		}
	}
}

// TestQuantizePipeline asserts quantization recurses through Pipeline
// (scaler exact, inner model quantized) and survives a binary round
// trip.
func TestQuantizePipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(0x99))
	X, y := randomRegression(rng, 150, 3)
	Xq, _ := randomRegression(rng, 30, 3)
	pl := &Pipeline{Model: NewExtraTrees(8, 2)}
	if err := pl.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	qr, err := Quantize(pl, 16)
	if err != nil {
		t.Fatal(err)
	}
	qp, ok := qr.(*Pipeline)
	if !ok {
		t.Fatalf("quantized pipeline is %T", qr)
	}
	if _, ok := qp.Model.(*QuantizedModel); !ok {
		t.Fatalf("quantized pipeline inner is %T", qp.Model)
	}
	buf, err := AppendBinary(nil, qr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range Xq {
		if got, want := back.Predict(x), qr.Predict(x); !sameBits(got, want) {
			t.Fatalf("pipeline round trip: %x != %x", got, want)
		}
		// The 16-bit tables are dense; scaled coarse-grid rows stay far
		// from the bands, so the quantized pipeline tracks the exact one.
		if got, want := qr.Predict(x), pl.Predict(x); math.Abs(got-want) > 0.05*(1+math.Abs(want)) {
			t.Fatalf("quantized pipeline drifted: %v vs %v", got, want)
		}
	}
}

// TestQuantizeErrors pins the misuse contract.
func TestQuantizeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	X, y := randomRegression(rng, 60, 3)

	if _, err := Quantize(&Forest{}, 16); err == nil {
		t.Error("quantize of an unfitted forest accepted")
	}
	lr := &LinearRegression{}
	if err := lr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(lr, 16); err == nil {
		t.Error("quantize of a linear model accepted")
	}
	f := &Forest{NTrees: 3, Seed: 1, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(f, 12); err == nil {
		t.Error("12-bit quantization accepted")
	}
	q16, err := Quantize(f, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Quantize(q16, 8); err == nil {
		t.Error("re-quantization to a different width accepted")
	}
	if again, err := Quantize(q16, 16); err != nil || again != q16 {
		t.Errorf("same-width re-quantization should be the identity, got %T %v", again, err)
	}
	if err := q16.Fit(X, y); err == nil {
		t.Error("refit of a frozen quantized model accepted")
	}
}

// TestQuantizedNaNRow documents the quantized caveat: NaN features
// clamp to code 0 (routing left) instead of the exact plane's
// NaN-goes-right, and the walk must still terminate with a finite
// leaf combination.
func TestQuantizedNaNRow(t *testing.T) {
	rng := rand.New(rand.NewSource(0x4a4))
	X, y := randomRegression(rng, 100, 3)
	f := &Forest{NTrees: 4, Seed: 1, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	qr, err := Quantize(f, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := qr.Predict([]float64{math.NaN(), 1, math.Inf(1)})
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("NaN/Inf row produced %v, want a finite leaf combination", got)
	}
}

// TestQuantizeCompound pins quantization of the compound estimators
// that hold more than one tree plane: a Stacking over tree bases with a
// tree meta model, and a Bagging of Pipelines. Single and batch
// predictions must equal the same fold over the members' own quantized
// tables, the lamb1 round trip must be exact, and a member with no
// tree plane (KNN, LinearRegression) must fail the quantization.
func TestQuantizeCompound(t *testing.T) {
	rng := rand.New(rand.NewSource(0x57ac))
	X, y := randomRegression(rng, 160, 3)
	Xq, _ := randomRegression(rng, 40, 3)

	st := &Stacking{
		NewBases: []func() Regressor{
			func() Regressor { return NewExtraTrees(6, 1) },
			func() Regressor { return &GradientBoosting{NStages: 6, Seed: 2, Workers: 1} },
		},
		NewMeta:     func() Regressor { return NewExtraTrees(4, 3) },
		PassThrough: true,
		Workers:     1,
	}
	if err := st.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	bag := &Bagging{
		NewBase: func() Regressor { return &Pipeline{Model: NewExtraTrees(4, 5)} },
		N:       3, Seed: 6, Workers: 1,
	}
	if err := bag.Fit(X, y); err != nil {
		t.Fatal(err)
	}

	for _, bits := range []int{16, 8} {
		quantize := func(r Regressor) Regressor {
			t.Helper()
			q, err := Quantize(r, bits)
			if err != nil {
				t.Fatalf("%d-bit Quantize(%T): %v", bits, r, err)
			}
			return q
		}
		qst := quantize(st).(*Stacking)
		qbases := []Regressor{quantize(st.bases[0]), quantize(st.bases[1])}
		qmeta := quantize(st.meta)
		stackWant := func(x []float64) float64 {
			return qmeta.Predict(append(append([]float64{}, x...), qbases[0].Predict(x), qbases[1].Predict(x)))
		}
		qbag := quantize(bag).(*Bagging)
		if qbag.compiled != nil {
			t.Fatal("quantized bagging of pipelines grew a fused exact table")
		}
		var qmembers []Regressor
		for _, m := range bag.models {
			qmembers = append(qmembers, quantize(m))
		}
		bagWant := func(x []float64) float64 {
			s := 0.0
			for _, m := range qmembers {
				s += m.Predict(x)
			}
			return s / float64(len(qmembers))
		}

		for _, c := range []struct {
			name string
			q    Regressor
			want func([]float64) float64
		}{{"stacking", qst, stackWant}, {"bagging", qbag, bagWant}} {
			buf, err := AppendBinary(nil, c.q)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeBinary(buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := StatsOf(back).Quant; got != fmt.Sprintf("quant%d", bits) {
				t.Errorf("%s/%d: decoded StatsOf.Quant = %q", c.name, bits, got)
			}
			out := make([]float64, len(Xq))
			for _, r := range []Regressor{c.q, back} {
				if err := PredictBatchInto(r, Xq, out, 2); err != nil {
					t.Fatal(err)
				}
				for i, x := range Xq {
					want := c.want(x)
					if got := r.Predict(x); !sameBits(got, want) {
						t.Fatalf("%s/%d row %d: single %x != members' quantized fold %x", c.name, bits, i, got, want)
					}
					if !sameBits(out[i], want) {
						t.Fatalf("%s/%d row %d: batch %x != members' quantized fold %x", c.name, bits, i, out[i], want)
					}
				}
			}
		}
	}

	knnBase := &Stacking{
		NewBases: []func() Regressor{
			func() Regressor { return NewExtraTrees(3, 1) },
			func() Regressor { return &KNN{K: 3} },
		},
		NewMeta: func() Regressor { return NewExtraTrees(3, 2) },
	}
	linMeta := &Stacking{
		NewBases: []func() Regressor{func() Regressor { return NewExtraTrees(3, 1) }},
		NewMeta:  func() Regressor { return &LinearRegression{} },
	}
	linBag := &Bagging{NewBase: func() Regressor { return &LinearRegression{} }, N: 2, Workers: 1}
	for _, c := range []struct {
		name string
		r    Regressor
		want string
	}{{"stacking with a KNN base", knnBase, "stacking base 1"},
		{"stacking with a linear meta", linMeta, "stacking meta"},
		{"bagging of linear models", linBag, "bagging member 0"}} {
		if err := c.r.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if _, err := Quantize(c.r, 16); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Quantize(%s) = %v, want an error naming %q", c.name, err, c.want)
		}
	}
	if _, err := Quantize(&Stacking{}, 16); err == nil {
		t.Error("quantize of an unfitted stacking accepted")
	}
}
