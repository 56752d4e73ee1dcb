package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// The benchmark's self-test: every phase runs briefly and must come out
// correct, and a replica serving a different model under the same name
// must fail the run.

func testConfig(t *testing.T, phase string, traced bool) config {
	return config{
		workload: "small-models",
		seed:     1,
		seconds:  4 * time.Second,
		traced:   traced,
		root:     t.TempDir(),
		phases:   []string{phase},
	}
}

func TestPhases(t *testing.T) {
	for _, phase := range []string{"batch-256", "single-open", "drift-adapt", "drift-default", "learn"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", phase, traced), func(t *testing.T) {
				cfg := testConfig(t, phase, traced)
				// Each phase measures for its share of seconds; give
				// every one two.
				share := phaseShare
				if phase == "drift-default" {
					share = defaultsShare
				}
				cfg.seconds = time.Duration(2 * float64(time.Second) / share)
				rep, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range rep.notes {
					t.Log(n)
				}
				if !rep.correct() {
					t.Fatalf("wrong answers: %s", strings.Join(rep.errs, "\n"))
				}
				res := rep.result(traced)
				if res.Attempted < 1 || len(res.Metrics) == 0 {
					t.Fatalf("empty result: %+v", res)
				}
				for name, m := range res.Metrics {
					if m.Unit == "" {
						t.Errorf("metric %s has no unit", name)
					}
				}
			})
		}
	}
}

// TestWrongModelFails plants a registry on the second replica holding
// models trained with another seed under the batch and single names:
// the gateway routes some batch models there, and their answers must
// be caught.
func TestWrongModelFails(t *testing.T) {
	cfg := testConfig(t, "batch-256", false)
	cfg.boot.wrongModel = true
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct() || rep.failed == 0 {
		t.Fatalf("a replica serving other models was not caught: %+v", rep.result(false))
	}
	if res := rep.result(false); res.Correct {
		t.Fatal("result reports correct")
	}
	t.Log(rep.errs[0])
}

// TestFailedRequestsFail plants a replica that answers every third
// /predict with 500: the failures must fail the run, even though every
// answer that did come back is right.
func TestFailedRequestsFail(t *testing.T) {
	cfg := testConfig(t, "batch-256", false)
	cfg.boot.failEvery = 3
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.result(false)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("failed requests did not fail the run: %+v", res)
	}
	t.Log(rep.errs[0])
}

// TestMetricsMatchBenchmarkJSON checks that a run reports exactly the
// metrics BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not one of the benchmark's", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, traced := range []bool{false, true} {
		cfg := testConfig(t, "", traced)
		cfg.phases = nil
		cfg.seconds = 8 * time.Second
		rep, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct() {
			t.Fatalf("wrong answers: %s", strings.Join(rep.errs, "\n"))
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		got := rep.result(traced).Metrics
		for _, m := range want {
			g, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("trace=%v: %s not reported", traced, m.Name)
			case g.Unit != m.Unit:
				t.Errorf("trace=%v: %s reported in %s, BENCHMARK.json says %s", traced, m.Name, g.Unit, m.Unit)
			}
		}
		if len(got) != len(want) {
			t.Errorf("trace=%v: reported %d metrics, BENCHMARK.json declares %d", traced, len(got), len(want))
		}
	}
}

var record = flag.Bool("record", false, "rewrite learn_golden.json from a fresh sweep")

// TestLearnGolden checks the learn sweep against learn_golden.json, or
// with -record rewrites it (after a change that deliberately alters
// the models).
func TestLearnGolden(t *testing.T) {
	reps, err := sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hy, et := learnMAPEs(reps)
	got := golden{Seed: learnSeed, Reps: learnReps, Trees: learnTrees, Digest: seriesDigest(reps), HybridMAPEPct: hy, MLMAPEPct: et}
	if *record {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("learn_golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := learnGolden()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("learn sweep %+v, recorded %+v", got, want)
	}
}
