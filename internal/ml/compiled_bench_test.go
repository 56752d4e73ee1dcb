package ml

import (
	"math/rand"
	"os"
	"testing"
)

// Before/after pairs for the compiled inference plane: the "recursive"
// variants rebuild the pre-refactor pointer-tree representation (see
// refNode in compiled_test.go) and walk it the way the estimators used
// to; the "compiled" variants run the flat node-table plane the
// estimators now use. Run with:
//
//	go test ./internal/ml -bench 'PredictBatch|PredictSingle' -benchmem
func benchSetup(b *testing.B, n int) ([][]float64, []float64, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	X, y := randomRegression(rng, n, 6)
	Xq, _ := randomRegression(rng, 512, 6)
	return X, y, Xq
}

// BenchmarkForestPredictBatch scores 512 rows with a 100-tree extra
// trees ensemble, sequentially (workers 1), so the pair isolates
// traversal cost from pool parallelism.
func BenchmarkForestPredictBatch(b *testing.B) {
	X, y, Xq := benchSetup(b, 400)
	f := &Forest{NTrees: 100, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 7, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	refs := make([]*refNode, len(f.trees))
	for i, t := range f.trees {
		refs[i] = refTree(&t.nodes)
	}
	out := make([]float64, len(Xq))

	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, x := range Xq {
				out[r] = refForestPredict(refs, x)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := f.PredictBatchInto(Xq, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGBRPredictBatch is the same pair for a 100-stage booster.
func BenchmarkGBRPredictBatch(b *testing.B) {
	X, y, Xq := benchSetup(b, 400)
	g := &GradientBoosting{NStages: 100, Seed: 7, Workers: 1}
	if err := g.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	refs := make([]*refNode, len(g.stages))
	for i, t := range g.stages {
		refs[i] = refTree(&t.nodes)
	}
	out := make([]float64, len(Xq))

	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, x := range Xq {
				out[r] = refBoostedPredict(refs, g.init, g.rate, x)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := g.PredictBatchInto(Xq, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTreePredictSingle pairs one deep tree's single-vector
// latency: pointer chase vs index walk.
func BenchmarkTreePredictSingle(b *testing.B) {
	X, y, Xq := benchSetup(b, 4000)
	tr := NewDecisionTree(TreeConfig{Seed: 3})
	if err := tr.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	ref := refTree(&tr.nodes)
	x := Xq[0]

	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ref.predict(x)
		}
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = tr.Predict(x)
		}
	})
}

// benchForest fits the *Layout benchmarks' shared 100-tree ensemble.
func benchForest(b *testing.B) (*Forest, [][]float64) {
	b.Helper()
	X, y, Xq := benchSetup(b, 4000)
	f := &Forest{NTrees: 100, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 7, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	return f, Xq
}

// stdForest is the explicit two-child branchy walk the implicit-left
// layout replaced, kept test-side as the baseline
// of the traversal guard and the *Layout benchmarks. It concatenates
// the member trees' SoA tables into one, rebasing child indices, and
// materialises the left-child column the canonical layout keeps
// implicit — the same memory image the production walk once read.
type stdForest struct {
	feature          []int32
	threshold, value []float64
	left, right      []int32
	roots            []int32
}

func newStdForest(trees []*DecisionTree) *stdForest {
	s := &stdForest{}
	for _, t := range trees {
		c := &t.nodes
		base := int32(len(s.feature))
		s.roots = append(s.roots, base)
		s.feature = append(s.feature, c.feature...)
		s.threshold = append(s.threshold, c.threshold...)
		s.value = append(s.value, c.value...)
		for i, f := range c.feature {
			if f < 0 {
				s.left, s.right = append(s.left, -1), append(s.right, -1)
			} else {
				s.left, s.right = append(s.left, base+int32(i)+1), append(s.right, base+c.right[i])
			}
		}
	}
	return s
}

// predictFrom is the branchy descent of one tree from root.
func (s *stdForest) predictFrom(root int32, x []float64) float64 {
	feature, threshold := s.feature, s.threshold
	left, right := s.left, s.right
	i := root
	for {
		f := feature[i]
		if f < 0 {
			return s.value[i]
		}
		if x[f] <= threshold[i] {
			i = left[i]
		} else {
			i = right[i]
		}
	}
}

// predict averages the member walks in tree order.
func (s *stdForest) predict(x []float64) float64 {
	sum := 0.0
	for _, r := range s.roots {
		sum += s.predictFrom(r, x)
	}
	return sum / float64(len(s.roots))
}

// predictBatchInto is the tree-major batch walk: outer loop trees,
// inner loop rows.
func (s *stdForest) predictBatchInto(X [][]float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for _, r := range s.roots {
		for i, x := range X {
			out[i] += s.predictFrom(r, x)
		}
	}
	n := float64(len(s.roots))
	for i := range out {
		out[i] /= n
	}
}

// BenchmarkForestPredictSingleLayout pairs single-row latency across
// the "standard" baseline walk (stdForest), the exact table and its
// Quantize'd copies (quantSweep) on a 100-tree ensemble.
func BenchmarkForestPredictSingleLayout(b *testing.B) {
	f, Xq := benchForest(b)
	std := newStdForest(f.trees)
	b.Run("standard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = std.predict(Xq[i%len(Xq)])
		}
	})
	for _, l := range quantSweep(b, f) {
		b.Run(l.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = l.m.Predict(Xq[i%len(Xq)])
			}
		})
	}
}

// BenchmarkForestPredictBatchLayout pairs 512-row batch scoring across
// the same tables (sequential, workers 1, tree-major engaged — the
// 100-tree table is far past the threshold).
func BenchmarkForestPredictBatchLayout(b *testing.B) {
	f, Xq := benchForest(b)
	out := make([]float64, len(Xq))
	std := newStdForest(f.trees)
	b.Run("standard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			std.predictBatchInto(Xq, out)
		}
	})
	for _, l := range quantSweep(b, f) {
		b.Run(l.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := PredictBatchInto(l.m, Xq, out, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTraversalBenchGuard is the CI bench-regression smoke gate: with
// LAM_BENCH_GUARD=1 it
// times the branchless implicit-left walk against the test-side
// explicit-child baseline (stdForest) and fails when branchless is
// more than 1.3x slower — a generous guard that only trips on a real
// regression (the whole point of the layout is to be faster), not on
// scheduler noise.
func TestTraversalBenchGuard(t *testing.T) {
	if os.Getenv("LAM_BENCH_GUARD") != "1" {
		t.Skip("set LAM_BENCH_GUARD=1 to run the traversal regression guard")
	}
	rng := rand.New(rand.NewSource(42))
	X, y := randomRegression(rng, 4000, 6)
	Xq, _ := randomRegression(rng, 512, 6)
	f := &Forest{NTrees: 100, Tree: TreeConfig{Splitter: RandomSplitter}, Seed: 7, Workers: 1}
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	std := newStdForest(f.trees)
	for _, x := range Xq {
		if got, want := f.Predict(x), std.predict(x); !sameBits(got, want) {
			t.Fatalf("baseline walk disagrees with the forest: %x vs %x", want, got)
		}
	}
	time := func(predict func([]float64) float64) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = predict(Xq[i%len(Xq)])
			}
		})
		return float64(res.NsPerOp())
	}
	standard := time(std.predict)
	branchless := time(f.Predict)
	t.Logf("single-row: standard %.0f ns/op, branchless %.0f ns/op (%.2fx)",
		standard, branchless, standard/branchless)
	if branchless > 1.3*standard {
		t.Errorf("branchless single-row walk is %.2fx the baseline (%.0f vs %.0f ns/op), beyond the 1.3x guard",
			branchless/standard, branchless, standard)
	}
}
