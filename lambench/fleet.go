package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lam/internal/dataset"
	"lam/internal/experiments"
	"lam/internal/gateway"
	"lam/internal/hybrid"
	"lam/internal/machine"
	"lam/internal/ml"
	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/rollout"
	"lam/internal/serve"
	"lam/internal/telemetry"
)

// The system under test, configured as lam-serve and lam-gateway would
// be for these traffic shapes. Every constant here is part of the
// benchmark's definition: changing one changes what is measured.
const (
	// gridDataset is the paper dataset every phase's traffic is drawn
	// from: stencil grid sizes on the bluewaters preset, where the
	// analytical model is accurate and the other presets' ground truth
	// is far enough off to trip the drift detector.
	gridDataset = "stencil-grid"
	replicas    = 2
	// batchPerReplica copies of the batch model are homed on each
	// replica, so both serve the batch traffic.
	batchPerReplica = 2
	// hybridTrainFrac is the paper's small-training-set regime for the
	// hybrid models (the Fig. 5-7 hybrid fractions are 1-4%).
	hybridTrainFrac = 0.04
	// driftTrainFrac is the source-machine training share of the model
	// the drift stream adapts.
	driftTrainFrac = 0.02

	singleModel = "single-hybrid"
	driftModel  = "drift-hybrid"
	// defaultsModel is the drift model the drift-default phase adapts
	// through the gateway left at lam-gateway's defaults.
	defaultsModel = "drift-defaults-hybrid"

	onlineWindow = 256
	onlineMin    = 128
)

// gatewayBoundFactor turns the main gateway's bounded-load spill off
// (`lam-gateway -bound-factor 1`). With it on, a model's /observe
// stream spills to the non-home replica whenever a read of the same
// model is in flight; that replica's own online plane then retrains and
// publishes on the shared registry, and the two replicas roll out
// different versions of one model. The fleet therefore has two
// gateways over the same replicas: the main one, without spill, which
// every phase but drift-default uses, and one at lam-gateway's
// defaults, through which drift-default measures that conflict.
const gatewayBoundFactor = 1

// The replicas' configuration mirrors `lam-serve -max-batch 32 -max-delay 1ms
// -max-inflight 64 -queue 128 -online -window 256 -min-samples 128
// -rollout -rollout-stages 0.25,0.5,1.0 -rollout-shadow-samples 48
// -rollout-stage-samples 32`.
var (
	coalesceConfig = serve.CoalesceConfig{MaxBatch: 32, MaxDelay: time.Millisecond}
	admitConfig    = serve.AdmitConfig{MaxInflight: 64, Queue: 128}
	rolloutConfig  = rollout.Config{
		Stages:        []float64{0.25, 0.5, 1.0},
		ShadowSamples: 48,
		StageSamples:  32,
		PromoteRatio:  0.95,
		WindowSize:    onlineWindow,
	}
)

// replica is one serve.Server on a loopback listener.
type replica struct {
	plane *online.Plane
	http  *http.Server
	url   string
	timer *handlerTimer
	fail  *failer       // the self-test's planted failures, or nil
	done  chan struct{} // closed when the serve loop returns
	// warmed is closed when the replica's warm-up, which runs beside
	// serving as in lam-serve, returns.
	warmed chan struct{}
}

// fleet is one booted system: replicas over a shared registry, and a
// gateway in front.
type fleet struct {
	dir      string
	reg      *registry.Registry
	reps     []*replica
	gw       *gateway.Gateway
	gwHTTP   *http.Server
	gwDone   chan struct{}
	gwURL    string
	gwTimer  *handlerTimer
	batchSet []string // batch model names, batchPerReplica homed on each replica

	// The gateway at lam-gateway's defaults.
	defGW   *gateway.Gateway
	defHTTP *http.Server
	defDone chan struct{}
	defURL  string
}

// setupTimes splits one set-up into its steps.
type setupTimes struct {
	dataset, train, publish, boot, warm time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.dataset + t.train + t.publish + t.boot + t.warm
}

// trained holds what set-up produced beyond the fleet: the dataset the
// serving traffic is drawn from, on the source machine.
type trained struct {
	ds *dataset.Dataset
}

// bootOptions lets the self-test plant a fault: wrongModel makes the
// second replica serve its own registry, in which the batch and single
// model names hold models trained with another seed; failEvery > 0
// makes the second replica answer every failEvery-th /predict with
// 500.
type bootOptions struct {
	wrongModel bool
	failEvery  int
}

// setup runs every set-up step once: dataset generation, training,
// registry publish, boot, and warm-up until every replica's /readyz and
// the gateway report ready.
func setup(ctx context.Context, root string, bm batchModel, seed int64, bo bootOptions) (*fleet, *trained, setupTimes, error) {
	var st setupTimes
	src := machine.BlueWatersXE6()
	const wl = gridDataset

	t0 := time.Now()
	ds, err := experiments.DatasetByName(wl, src, uint64(seed))
	if err != nil {
		return nil, nil, st, err
	}
	st.dataset = time.Since(t0)

	t0 = time.Now()
	rng := rand.New(rand.NewSource(seed))
	etTrain, _, err := ds.SampleFraction(bm.trainFrac, rng)
	if err != nil {
		return nil, nil, st, err
	}
	et := &ml.Pipeline{Model: ml.NewExtraTrees(bm.trees, seed)}
	if err := et.FitCtx(ctx, etTrain.X, etTrain.Y); err != nil {
		return nil, nil, st, err
	}
	am, err := experiments.AMByDataset(wl, src)
	if err != nil {
		return nil, nil, st, err
	}
	hyTrain, hyTest, err := ds.SampleFraction(hybridTrainFrac, rng)
	if err != nil {
		return nil, nil, st, err
	}
	hy, err := hybrid.TrainCtx(ctx, hyTrain, am, hybrid.Config{Seed: seed})
	if err != nil {
		return nil, nil, st, err
	}
	hyMAPE, err := hybridMAPE(ctx, hy, hyTest)
	if err != nil {
		return nil, nil, st, err
	}
	driftTr, driftTest, err := ds.SampleFraction(driftTrainFrac, rng)
	if err != nil {
		return nil, nil, st, err
	}
	dhy, err := hybrid.TrainCtx(ctx, driftTr, am, hybrid.Config{Seed: seed + 1})
	if err != nil {
		return nil, nil, st, err
	}
	dMAPE, err := hybridMAPE(ctx, dhy, driftTest)
	if err != nil {
		return nil, nil, st, err
	}
	st.train = time.Since(t0)

	t0 = time.Now()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, st, err
	}
	dir, err := os.MkdirTemp(root, "registry-")
	if err != nil {
		return nil, nil, st, err
	}
	f := &fleet{dir: dir}
	fail := func(err error) (*fleet, *trained, setupTimes, error) {
		f.close()
		return nil, nil, st, err
	}
	if f.reg, err = registry.Open(filepath.Join(dir, "models")); err != nil {
		return fail(err)
	}
	// The registry each replica serves, with the models published into
	// it. The self-test's planted fault gives the second replica a
	// registry of its own whose batch and single models were trained
	// with another seed.
	type served struct {
		reg *registry.Registry
		hy  *hybrid.Model
		et  *ml.Pipeline
	}
	regs := []served{{f.reg, hy, et}}
	if bo.wrongModel {
		wrong := served{et: &ml.Pipeline{Model: ml.NewExtraTrees(bm.trees, seed+100)}}
		if wrong.reg, err = registry.Open(filepath.Join(dir, "wrong")); err != nil {
			return fail(err)
		}
		if wrong.hy, err = hybrid.TrainCtx(ctx, hyTrain, am, hybrid.Config{Seed: seed + 100}); err != nil {
			return fail(err)
		}
		if err := wrong.et.FitCtx(ctx, etTrain.X, etTrain.Y); err != nil {
			return fail(err)
		}
		regs = append(regs, wrong)
	}
	for _, sv := range regs {
		if _, err := sv.reg.SaveHybrid(sv.hy, registry.Meta{Name: singleModel, Workload: wl, Machine: "bluewaters", TrainSize: hyTrain.Len(), TestMAPE: hyMAPE}); err != nil {
			return fail(err)
		}
		for _, name := range []string{driftModel, defaultsModel} {
			if _, err := sv.reg.SaveHybrid(dhy, registry.Meta{Name: name, Workload: wl, Machine: "bluewaters", TrainSize: driftTr.Len(), TestMAPE: dMAPE}); err != nil {
				return fail(err)
			}
		}
	}
	st.publish = time.Since(t0)

	t0 = time.Now()
	for i := 0; i < replicas; i++ {
		failEvery := 0
		if i == 1 {
			failEvery = bo.failEvery
		}
		r, err := bootReplica(regs[min(i, len(regs)-1)].reg, seed, failEvery)
		if err != nil {
			return fail(err)
		}
		f.reps = append(f.reps, r)
	}
	urls := make([]string, len(f.reps))
	for i, r := range f.reps {
		urls[i] = r.url
	}
	f.gw, err = gateway.New(urls, gateway.Config{
		Health:      gateway.HealthConfig{Interval: 50 * time.Millisecond},
		BoundFactor: gatewayBoundFactor,
	})
	if err != nil {
		return fail(err)
	}
	f.gwTimer = &handlerTimer{}
	f.gwHTTP, f.gwURL, f.gwDone, err = listen(f.gwTimer.wrap(f.gw.Handler()))
	if err != nil {
		return fail(err)
	}
	if f.defGW, err = gateway.New(urls, gateway.Config{}); err != nil {
		return fail(err)
	}
	f.defHTTP, f.defURL, f.defDone, err = listen(f.defGW.Handler())
	if err != nil {
		return fail(err)
	}
	st.boot = time.Since(t0)

	t0 = time.Now()
	if err := f.waitReady(ctx); err != nil {
		return fail(err)
	}
	if err := f.homeBatchNames(ctx); err != nil {
		return fail(err)
	}
	st.warm = time.Since(t0)

	// The batch model copies are published once their names are known
	// to spread over both replicas.
	t0 = time.Now()
	for _, sv := range regs {
		for _, name := range f.batchSet {
			if _, err := sv.reg.SaveRegressor(sv.et, registry.Meta{Name: name, Workload: wl, Machine: "bluewaters", TrainSize: etTrain.Len()}); err != nil {
				return fail(err)
			}
		}
	}
	st.publish += time.Since(t0)

	t0 = time.Now()
	if err := f.warmBatchModels(ctx, ds.X[0]); err != nil {
		return fail(err)
	}
	st.warm += time.Since(t0)
	for _, r := range f.reps {
		if r.fail != nil {
			r.fail.armed.Store(true)
		}
	}
	return f, &trained{ds: ds}, st, nil
}

func hybridMAPE(ctx context.Context, hy *hybrid.Model, test *dataset.Dataset) (float64, error) {
	pred := make([]float64, test.Len())
	if err := hy.PredictBatchIntoCtx(ctx, test.X, pred); err != nil {
		return 0, err
	}
	return ml.MAPE(test.Y, pred), nil
}

func bootReplica(reg *registry.Registry, seed int64, failEvery int) (*replica, error) {
	s := serve.New(reg)
	s.Coalesce = coalesceConfig
	s.Admit = admitConfig
	s.WarmNames = []string{singleModel, driftModel, defaultsModel}
	plane := online.New(reg, online.Config{
		WindowSize: onlineWindow,
		Detector:   online.DetectorConfig{MinSamples: onlineMin},
		Seed:       seed,
	})
	s.AttachOnline(plane)
	s.AttachRollout(rollout.New(reg, rolloutConfig))
	r := &replica{plane: plane, timer: &handlerTimer{}}
	var err error
	h := s.Handler()
	if failEvery > 0 {
		r.fail = &failer{n: int64(failEvery)}
		h = r.fail.wrap(h)
	}
	r.http, r.url, r.done, err = listen(r.timer.wrap(h))
	if err != nil {
		plane.Close()
		return nil, err
	}
	r.warmed = make(chan struct{})
	go func() {
		defer close(r.warmed)
		_ = s.Warm() // a warm failure keeps /readyz at 503, which waitReady reports
	}()
	return r, nil
}

// listen serves h on a fresh loopback port; done closes once the serve
// loop has returned.
func listen(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return srv, "http://" + ln.Addr().String(), done, nil
}

// waitReady waits until every replica's warm-up has returned, then
// polls every replica's /readyz and the gateways' /healthz until all
// report ready and the main gateway counts every replica live. Waiting
// on the warm-ups rather than polling /readyz keeps the poll interval
// out of the set-up time.
func (f *fleet) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for _, r := range f.reps {
		select {
		case <-r.warmed:
		case <-ctx.Done():
			return ctx.Err()
		case <-timeout.C:
			return fmt.Errorf("%s still warming after 30s", r.url)
		}
	}
	c := &http.Client{Timeout: 2 * time.Second}
	urls := []string{f.gwURL + "/healthz", f.defURL + "/healthz"}
	for _, r := range f.reps {
		urls = append(urls, r.url+"/readyz")
	}
	for _, u := range urls {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			ok, err := getOK(c, u)
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after 30s: %v", u, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// The gateway's /healthz is 200 with one live backend; wait for
	// the probers to admit all of them.
	for {
		exp, err := scrape(c, f.gwURL+"/metrics")
		if err == nil {
			if fam := exp.Family("lam_gateway_backend_up"); fam != nil && len(fam.Samples) == replicas {
				up := 0
				for _, s := range fam.Samples {
					if s.Value == 1 {
						up++
					}
				}
				if up == replicas {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway never admitted all %d replicas: %v", replicas, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getOK(c *http.Client, u string) (bool, error) {
	resp, err := c.Get(u)
	if err != nil {
		return false, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	return true, nil
}

func scrape(c *http.Client, u string) (*telemetry.Exposition, error) {
	resp, err := c.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return telemetry.ParseExposition(string(b))
}

// homeBatchNames finds names homed on each replica: the gateway routes
// by model name alone, and which replica a name lands on depends on the
// listeners' ports. It sends a probe /predict for candidate names not
// in the registry (each answered 404 by its home replica) and keeps the
// first batchPerReplica names each replica's handler saw.
func (f *fleet) homeBatchNames(ctx context.Context) error {
	c := &http.Client{Timeout: 10 * time.Second}
	for _, r := range f.reps {
		r.timer.on.Store(true)
	}
	defer func() {
		for _, r := range f.reps {
			r.timer.on.Store(false)
			r.timer.take()
		}
	}()
	perReplica := make([]int, len(f.reps))
	for i := 0; i < 64 && len(f.batchSet) < batchPerReplica*len(f.reps); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		name := fmt.Sprintf("batch-et-%d", i)
		status, _, err := post(c, f.gwURL+"/predict", []byte(fmt.Sprintf(`{"model":%q,"x":[1]}`, name)), "")
		if err != nil {
			return err
		}
		if status != http.StatusNotFound {
			return fmt.Errorf("probe for unpublished model %s: status %d, want 404", name, status)
		}
		for ri, r := range f.reps {
			if len(r.timer.take()) > 0 && perReplica[ri] < batchPerReplica {
				perReplica[ri]++
				f.batchSet = append(f.batchSet, name)
			}
		}
	}
	if len(f.batchSet) < batchPerReplica*len(f.reps) {
		return fmt.Errorf("found homes for only %v batch names", perReplica)
	}
	return nil
}

// warmBatchModels sends one batch per batch model so every copy is
// resident on its home replica before anything is measured.
func (f *fleet) warmBatchModels(ctx context.Context, row []float64) error {
	c := &http.Client{Timeout: 30 * time.Second}
	for _, name := range f.batchSet {
		if err := ctx.Err(); err != nil {
			return err
		}
		body, err := json.Marshal(map[string]any{"model": name, "batch": [][]float64{row}})
		if err != nil {
			return err
		}
		status, resp, err := post(c, f.gwURL+"/predict", body, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warming %s: status %d: %s", name, status, resp)
		}
	}
	return nil
}

// close stops the gateway, then the replicas and their online planes,
// waits for every serve loop to return, and removes the registry.
func (f *fleet) close() {
	if f == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.gwHTTP != nil {
		_ = f.gwHTTP.Shutdown(ctx)
		<-f.gwDone
	}
	if f.gw != nil {
		f.gw.Close()
	}
	if f.defHTTP != nil {
		_ = f.defHTTP.Shutdown(ctx)
		<-f.defDone
	}
	if f.defGW != nil {
		f.defGW.Close()
	}
	for _, r := range f.reps {
		_ = r.http.Shutdown(ctx)
		<-r.done
		<-r.warmed
		r.plane.Close()
	}
	if f.dir != "" {
		_ = os.RemoveAll(f.dir)
	}
}

// handlerTimer wraps a handler and, while on, records each request's
// ServeHTTP time keyed by its trace header. Off, it costs one atomic
// load per request.
type handlerTimer struct {
	on   atomic.Bool
	mu   sync.Mutex
	recs []handlerRec
}

type handlerRec struct {
	trace string
	path  string
	dur   time.Duration
}

func (t *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		t.mu.Lock()
		t.recs = append(t.recs, handlerRec{trace: r.Header.Get(telemetry.TraceHeader), path: r.URL.Path, dur: d})
		t.mu.Unlock()
	})
}

// take returns and clears the recorded timings.
func (t *handlerTimer) take() []handlerRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.recs
	t.recs = nil
	return out
}

// failer plants failures: once armed (after set-up), it answers every
// n-th /predict with 500 instead of passing it on.
type failer struct {
	n     int64
	armed atomic.Bool
	seen  atomic.Int64
}

func (fl *failer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fl.armed.Load() && r.URL.Path == "/predict" && fl.seen.Add(1)%fl.n == 0 {
			http.Error(w, "planted failure", http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	})
}
