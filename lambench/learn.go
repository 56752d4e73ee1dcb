package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/machine"
)

// The learn phase regenerates every paper figure at a fixed seed,
// repetition count and tree count, so its MAPE series are the same on
// every run: a change in them means the models changed. With --seconds
// too short for more, it still runs the sweep once.
const (
	learnSeed  = 42
	learnReps  = 2
	learnTrees = 20
)

// golden is the learn sweep's recorded outcome: the SHA-256 of every
// MAPE series, bit for bit, and the two summary MAPEs. TestLearnGolden
// -record rewrites it after a change that deliberately alters the
// models.
type golden struct {
	Seed          int64   `json:"seed"`
	Reps          int     `json:"reps"`
	Trees         int     `json:"trees"`
	Digest        string  `json:"digest"`
	HybridMAPEPct float64 `json:"hybrid_mape_pct"`
	MLMAPEPct     float64 `json:"ml_mape_pct"`
}

//go:embed learn_golden.json
var learnGoldenJSON []byte

func learnGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(learnGoldenJSON, &g); err != nil {
		return g, fmt.Errorf("learn_golden.json: %w", err)
	}
	if g.Seed != learnSeed || g.Reps != learnReps || g.Trees != learnTrees {
		return g, fmt.Errorf("learn_golden.json records seed %d, reps %d, trees %d; the sweep runs seed %d, reps %d, trees %d",
			g.Seed, g.Reps, g.Trees, learnSeed, learnReps, learnTrees)
	}
	return g, nil
}

// sweep runs the figure sweep once.
func sweep(ctx context.Context) ([]*experiments.Report, error) {
	return experiments.RunManyCtx(ctx, experiments.AllFigureIDs(), experiments.Options{
		Seed:    learnSeed,
		Reps:    learnReps,
		Trees:   learnTrees,
		Workers: runtime.NumCPU(),
	})
}

// seriesDigest hashes every series value bit for bit.
func seriesDigest(reps []*experiments.Report) string {
	var b bytes.Buffer
	for _, r := range reps {
		for _, s := range r.Series {
			fmt.Fprintf(&b, "%s/%s:", r.ID, s.Label)
			for _, vs := range [][]float64{s.Fractions, s.MeanMAPE, s.StdMAPE, s.MedianMAPE} {
				for _, v := range vs {
					fmt.Fprintf(&b, "%x,", math.Float64bits(v))
				}
			}
			b.WriteByte('\n')
		}
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// learnMAPEs averages the hybrid model's mean MAPE at the paper's small
// training fractions (<= 4%) and pure extra trees' at its larger ones
// (>= 10%), over every figure that has them.
func learnMAPEs(reps []*experiments.Report) (hybridPct, mlPct float64) {
	var hy, et []float64
	for _, r := range reps {
		for _, s := range r.Series {
			for i, fr := range s.Fractions {
				switch {
				case s.Label == "Hybrid Model" && fr <= 0.04:
					hy = append(hy, s.MeanMAPE[i])
				case (s.Label == "Extra Trees" || s.Label == "Extra Trees (pure ML)") && fr >= 0.10:
					et = append(et, s.MeanMAPE[i])
				}
			}
		}
	}
	return mean(hy), mean(et)
}

// learnPhase is learn: the figure sweep, in process.
type learnPhase struct {
	want      golden
	times     []float64
	first     string
	firstReps []*experiments.Report
	rep       *report
	traced    bool
	owed      time.Duration // measuring time given to the phase and not yet spent
	last      time.Duration // the last sweep's wall time
}

func newLearnPhase(cfg config) (*learnPhase, error) {
	want, err := learnGolden()
	if err != nil {
		return nil, err
	}
	return &learnPhase{want: want, rep: newReport(), traced: cfg.traced}, nil
}

// slice runs sweeps for d. A sweep takes longer than one round's share,
// so the time a slice is given carries over: a slice runs a sweep only
// while the time owed to the phase holds the last one (the first slice
// always runs one). The sweep has no traced form; a traced run times
// its layers once, in finish.
func (p *learnPhase) slice(ctx context.Context, traced bool, d time.Duration) error {
	if traced {
		return nil
	}
	p.owed += d
	for len(p.times) == 0 || p.owed >= p.last {
		t0 := time.Now()
		reps, err := sweep(ctx)
		if err != nil {
			return err
		}
		p.last = time.Since(t0)
		p.owed -= p.last
		p.times = append(p.times, p.last.Seconds())
		p.rep.attempted++
		dig := seriesDigest(reps)
		if p.first == "" {
			p.first, p.firstReps = dig, reps
		} else if dig != p.first {
			p.rep.wrong("learn: sweep %d's MAPE series differ from the first sweep's", len(p.times))
		}
	}
	return nil
}

func (p *learnPhase) finish(ctx context.Context, rep *report) error {
	rep.attempted += p.rep.attempted
	rep.failed += p.rep.failed
	rep.errs = append(rep.errs, p.rep.errs...)
	hy, et := learnMAPEs(p.firstReps)
	if p.first != p.want.Digest {
		rep.wrong("learn: MAPE series (hybrid %.4f%%, extra trees %.4f%%) differ from the recorded ones (hybrid %.4f%%, extra trees %.4f%%)",
			hy, et, p.want.HybridMAPEPct, p.want.MLMAPEPct)
	}
	rep.endToEnd("learn_s", "s", median(p.times))
	rep.endToEnd("hybrid_mape_pct", "%", hy)
	rep.endToEnd("ml_mape_pct", "%", et)
	rep.note("learn: %d sweeps of %d figures (seed %d, reps %d, trees %d), median %.3f s; hybrid MAPE %.3f%%, extra-trees MAPE %.3f%%",
		len(p.times), len(p.firstReps), learnSeed, learnReps, learnTrees, median(p.times), hy, et)
	if p.traced {
		return learnLayers(ctx, rep)
	}
	return nil
}

// learnLayers times the layers the sweep spends its time in, each
// called alone on the inputs the sweep gives it: dataset generation,
// the extra-trees fit, hybrid training and analytical-model evaluation.
func learnLayers(ctx context.Context, rep *report) error {
	m := machine.BlueWatersXE6()
	var builds []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := experiments.DatasetByName("stencil-blocking", m, learnSeed); err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
	}
	ds, err := experiments.DatasetByName("stencil-blocking", m, learnSeed)
	if err != nil {
		return err
	}
	am, err := experiments.AMByDataset("stencil-blocking", m)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(learnSeed))
	var fits, trains []float64
	for i := 0; i < 5; i++ {
		train, _, err := ds.SampleFraction(0.04, rng)
		if err != nil {
			return err
		}
		reg := experiments.DefaultPipeline("et", learnTrees)(int64(i))
		t0 := time.Now()
		if err := reg.Fit(train.X, train.Y); err != nil {
			return err
		}
		fits = append(fits, ms(time.Since(t0)))
		t0 = time.Now()
		// The sweep's hybrid models use hybrid's default ML component.
		if _, err := hybrid.TrainCtx(ctx, train, am, hybrid.Config{Seed: int64(i), Workers: runtime.NumCPU()}); err != nil {
			return err
		}
		trains = append(trains, ms(time.Since(t0)))
	}
	var evals []float64
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for _, x := range ds.X {
			if _, err := am.Predict(x); err != nil {
				return err
			}
		}
		evals = append(evals, float64(time.Since(t0).Nanoseconds())/float64(ds.Len()))
	}
	rep.layer("learn.dataset.build_ms", "ms", median(builds))
	rep.layer("learn.ml.fit_ms", "ms", median(fits))
	rep.layer("learn.hybrid.train_ms", "ms", median(trains))
	rep.layer("learn.analytical.eval_ns_per_row", "ns", median(evals))
	return nil
}
