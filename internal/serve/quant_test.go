package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lam/internal/experiments"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/registry"
)

// TestServeQuantizedArtifact serves a quantized model end to end, the
// way lam-model quantize publishes one: a hybrid is published as v1 and
// served, its Quantize(16) copy is published as v2, and the server must
// hot-swap to v2 and answer single, 256-row batch and coalesced
// /predict requests bit-identically to the in-process quantized model.
func TestServeQuantizedArtifact(t *testing.T) {
	m := machine.BlueWatersXE6()
	ds, err := experiments.DatasetByName("stencil-grid", m, 42)
	if err != nil {
		t.Fatal(err)
	}
	am, err := experiments.AMByDataset("stencil-grid", m)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := ds.SampleFraction(0.02, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	hy, err := hybrid.Train(train, am, hybrid.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := registry.Meta{Name: "grid-hybrid", Workload: "stencil-grid", Machine: "bluewaters", TrainSize: train.Len()}
	if _, err := reg.SaveHybrid(hy, meta); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	srv.Coalesce = CoalesceConfig{MaxBatch: 8, MaxDelay: 2 * time.Millisecond}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	X := test.X[:256]
	predict := func(req map[string]any) predictOut {
		t.Helper()
		resp, body := postPredict(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out predictOut
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := predict(map[string]any{"model": "grid-hybrid", "x": X[0]}); out.Version != 1 {
		t.Fatalf("before the quantized publish: served v%d, want v1", out.Version)
	}

	hq, err := hy.Quantize(16)
	if err != nil {
		t.Fatal(err)
	}
	qmeta, err := reg.SaveHybrid(hq, meta)
	if err != nil {
		t.Fatal(err)
	}
	if qmeta.Version != 2 {
		t.Fatalf("quantized publish got version %d, want 2", qmeta.Version)
	}
	want := make([]float64, len(X))
	for i, x := range X {
		if want[i], err = hq.Predict(x); err != nil {
			t.Fatal(err)
		}
	}
	same := func(got, want float64) bool { return math.Float64bits(got) == math.Float64bits(want) }

	// Single row: resolves latest, so the server swaps v2 in.
	out := predict(map[string]any{"model": "grid-hybrid", "x": X[0]})
	if out.Version != 2 || out.Y == nil || !same(*out.Y, want[0]) {
		t.Fatalf("single: served v%d %v, want v2 %v", out.Version, out.Y, want[0])
	}
	if swaps := srv.Metrics.ModelSwaps.Load(); swaps != 1 {
		t.Fatalf("hot swaps = %d, want 1", swaps)
	}

	// One 256-row batch.
	out = predict(map[string]any{"model": "grid-hybrid", "batch": X})
	if out.Version != 2 || len(out.YBatch) != len(X) {
		t.Fatalf("batch: served v%d with %d rows, want v2 with %d", out.Version, len(out.YBatch), len(X))
	}
	for i, y := range out.YBatch {
		if !same(y, want[i]) {
			t.Fatalf("batch row %d: served %v, want %v", i, y, want[i])
		}
	}

	// Concurrent single rows ride the coalescer.
	coalescedBefore := srv.Metrics.CoalescedRequests.Load()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 64; i += workers {
				// postPredict calls t.Fatal, which must stay on the
				// test goroutine; this one reports with t.Error.
				req, _ := json.Marshal(map[string]any{"model": "grid-hybrid", "x": X[i]})
				resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(req))
				if err != nil {
					t.Errorf("coalesced row %d: %v", i, err)
					return
				}
				var out predictOut
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("coalesced row %d: status %d: %v", i, resp.StatusCode, err)
					return
				}
				if out.Version != 2 || out.Y == nil || !same(*out.Y, want[i]) {
					t.Errorf("coalesced row %d: served v%d %v, want v2 %v", i, out.Version, out.Y, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	if got := srv.Metrics.CoalescedRequests.Load() - coalescedBefore; got != 64 {
		t.Fatalf("coalesced %d single rows, want 64", got)
	}
}
