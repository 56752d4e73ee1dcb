package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"lam/internal/dataset"
	"lam/internal/experiments"
	"lam/internal/machine"
	"lam/internal/online"
	"lam/internal/registry"
	"lam/internal/rollout"
)

const (
	// driftBatch rows go in each /observe request: a whole window, so
	// the first batch after a switch fills the window with the new
	// machine's ground truth. With smaller batches the detector trips
	// on a window still mostly holding the previous machine; the
	// retrain then learns mostly that machine and records a holdout
	// MAPE so high that the detector can miss the next switch
	// altogether (see README.md, "Findings").
	driftBatch = onlineWindow
	// postSwapSamples observations since the last swap settle the
	// window whose MAPE must beat the pre-swap window's.
	postSwapSamples = 128
	// cycleTimeout bounds one drift cycle; a cycle that has not
	// promoted and settled by then is a failed operation.
	cycleTimeout = 30 * time.Second
)

// driftSchedule is the machine preset the ground truth switches to in
// each cycle; the drift model starts out trained on bluewaters.
var driftSchedule = []string{"xeon", "edge", "bluewaters"}

type observeOut struct {
	Version int             `json:"version"`
	Drift   online.Status   `json:"drift"`
	Rollout *rollout.Status `json:"rollout"`
}

// cycle is one adaptation: ground truth switches machine, the detector
// trips, a retrained version is published, shadow-scored, canaried and
// promoted. A cycle fails unless its first candidate to finish the
// rollout is promoted (no rollback before it) and the plane settles
// within cycleTimeout, with a post-swap window MAPE below the pre-swap
// one. A later candidate of the same cycle, retrained while the plane
// settles, may be rolled back: that is counted, not failed.
type cycle struct {
	machine    string
	start      time.Time // first drifted observation sent
	shadowAt   time.Time // first response in the shadow phase
	canaryAt   time.Time // first response in a canary stage
	promotedAt time.Time // first response reporting the new version as latest
	version    int       // the first version promoted in the cycle
	pre, post  float64   // windowed MAPE before the swap and after it settles
	adaptEnd   time.Time // first read answered by the promoted version for good
	observeRTT durations
}

// reader sends closed-loop single-row reads of one model until
// stopped.
type reader struct {
	mu    sync.Mutex
	reads []sample
	stop  chan struct{}
	done  chan struct{}
}

func startReader(c *http.Client, url string, bodies [][]byte) *reader {
	r := &reader{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for i := 0; ; i++ {
			select {
			case <-r.stop:
				return
			default:
			}
			k := i % len(bodies)
			s := send(c, url, bodies[k], k, time.Now(), false)
			r.mu.Lock()
			r.reads = append(r.reads, s)
			r.mu.Unlock()
		}
	}()
	return r
}

func (r *reader) finish() []sample {
	close(r.stop)
	<-r.done
	return r.reads
}

// snapshot returns the reads so far.
func (r *reader) snapshot() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sample(nil), r.reads...)
}

// readVersion is the model version that answered a successful read, or
// 0.
func readVersion(s *sample) int {
	var out predictOut
	if !s.ok() || json.Unmarshal(s.body, &out) != nil {
		return 0
	}
	return out.Version
}

// adaptedAt is when reads started being answered by version v or a
// later one for good: the completion of the first such read after the
// last read since start answered by an older version. Zero if none.
func adaptedAt(reads []sample, start time.Time, v int) time.Time {
	var at time.Time
	for i := range reads {
		rd := &reads[i]
		if rd.sent.Before(start) || !rd.ok() {
			continue
		}
		switch {
		case readVersion(rd) < v:
			at = time.Time{}
		case at.IsZero():
			at = rd.done
		}
	}
	return at
}

// driftInputs are a drift stream's generated inputs: each machine's
// ground truth as a shuffled observation stream, and the read rows of
// the model it adapts.
type driftInputs struct {
	model   string
	streams map[string]*dataset.Dataset
	pos     map[string]int // each stream's next row
	reads   [][]float64
	bodies  [][]byte
}

func newDriftInputs(seed int64, model string) (*driftInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &driftInputs{model: model, streams: map[string]*dataset.Dataset{}, pos: map[string]int{}}
	for _, name := range []string{"xeon", "edge", "bluewaters"} {
		m, ok := machine.Presets()[name]
		if !ok {
			return nil, fmt.Errorf("unknown machine %q", name)
		}
		ds, err := experiments.DatasetByName(gridDataset, m, uint64(seed))
		if err != nil {
			return nil, err
		}
		in.streams[name] = ds.Subset(rng.Perm(ds.Len()))
	}
	src := in.streams["bluewaters"]
	for i := 0; i < 512; i++ {
		x := src.X[rng.Intn(src.Len())]
		b, err := json.Marshal(map[string]any{"model": model, "x": x})
		if err != nil {
			return nil, err
		}
		in.reads = append(in.reads, x)
		in.bodies = append(in.bodies, b)
	}
	return in, nil
}

// batch encodes the next n observations of machine's stream.
func (in *driftInputs) batch(machine string, n int) ([]byte, error) {
	stream := in.streams[machine]
	lo := in.pos[machine] % (stream.Len() - n)
	in.pos[machine] += n
	return json.Marshal(map[string]any{"model": in.model, "batch": stream.X[lo : lo+n], "y_batch": stream.Y[lo : lo+n]})
}

// observe sends one /observe batch and decodes the answer.
func observe(c *http.Client, url string, body []byte) (observeOut, error) {
	var out observeOut
	status, resp, err := post(c, url+"/observe", body, "")
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("status %d: %.200s", status, resp)
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return out, fmt.Errorf("decoding /observe answer: %w", err)
	}
	return out, nil
}

// runCycles streams observations, one cycle after another, until the
// deadline passes (a cycle in progress completes). The reader's reads
// run beside it throughout.
func runCycles(ctx context.Context, c *http.Client, f *fleet, in *driftInputs, first int, deadline time.Time, rd *reader, rep *report) ([]cycle, error) {
	var cycles []cycle
	version := 0
	var last observeOut
	for k := first; time.Now().Before(deadline); k++ {
		cy := cycle{machine: driftSchedule[k%len(driftSchedule)]}
		st0, err := rolloutStatus(c, f.gwURL, in.model)
		if err != nil {
			return cycles, err
		}
		startVersion := version
		settled := 0
		cy.start = time.Now()
		for {
			if err := ctx.Err(); err != nil {
				return cycles, err
			}
			if time.Since(cy.start) > cycleTimeout {
				d := last.Drift
				rep.wrong("drift-adapt: cycle to %s did not promote a retrained version and settle within %v: last served v%d, promoted v%d, window %d MAPE %.2f%% (threshold %.2f%%), tripped %v, retraining %v, retrains %d started %d published %d discarded, last error %q, rollout %+v",
					cy.machine, cycleTimeout, last.Version, cy.version, d.Window.Count, d.Window.MAPE, d.ThresholdMAPE, d.Tripped, d.Retraining,
					d.RetrainsStarted, d.RetrainsPublished, d.RetrainsDiscarded, d.LastError, last.Rollout)
				return cycles, nil
			}
			body, err := in.batch(cy.machine, driftBatch)
			if err != nil {
				return cycles, err
			}
			t0 := time.Now()
			out, err := observe(c, f.gwURL, body)
			cy.observeRTT = append(cy.observeRTT, time.Since(t0))
			rep.attempted++
			if err != nil {
				rep.wrong("drift-adapt: /observe: %v", err)
				return cycles, nil
			}
			last = out
			now := time.Now()
			if startVersion == 0 {
				startVersion = out.Version
			}
			version = out.Version
			if r := out.Rollout; r != nil {
				if cy.pre == 0 && r.Phase != "idle" {
					cy.pre = out.Drift.PreSwapMAPE
				}
				if r.Phase == "shadow" && cy.shadowAt.IsZero() {
					cy.shadowAt = now
				}
				if r.Phase == "canary" && cy.canaryAt.IsZero() {
					cy.canaryAt = now
				}
			}
			if cy.promotedAt.IsZero() && out.Version > startVersion {
				cy.promotedAt, cy.version = now, out.Version
				// The promoted version must be the cycle's first
				// candidate to get through: a candidate rolled back
				// on the way is a failed adaptation.
				st1, err := rolloutStatus(c, f.gwURL, in.model)
				if err != nil {
					return cycles, err
				}
				if n := st1.Rollbacks - st0.Rollbacks; n > 0 {
					rep.wrong("drift-adapt: cycle to %s rolled back %d candidate(s) before promoting v%d (last transition %q)", cy.machine, n, cy.version, st1.LastTransition)
				}
			}
			// The cycle ends once the plane has settled on this
			// machine: promoted, postSwapSamples observed since, no
			// retrain in flight or about to start, no rollout, for two
			// responses in a row (a version published just before the
			// first is only picked up by the rollout on the next
			// request). A switch during a late retrain or rollout would
			// see its version promoted as if it answered the new
			// machine.
			if !cy.promotedAt.IsZero() && out.Drift.Window.Count >= postSwapSamples && out.Rollout == nil &&
				!out.Drift.Retraining && !out.Drift.Tripped {
				if settled++; settled == 2 {
					cy.post = out.Drift.Window.MAPE
					break
				}
			} else {
				settled = 0
			}
		}
		// The reader is closed-loop beside the stream; give it time to
		// see the new version.
		for wait := time.Now().Add(5 * time.Second); ; {
			if cy.adaptEnd = adaptedAt(rd.snapshot(), cy.start, cy.version); !cy.adaptEnd.IsZero() || time.Now().After(wait) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		switch {
		case cy.adaptEnd.IsZero():
			rep.wrong("drift-adapt: no read answered by promoted v%d (cycle to %s)", cy.version, cy.machine)
		case cy.pre <= 0 || !(cy.post < cy.pre):
			rep.wrong("drift-adapt: cycle to %s: post-swap window MAPE %.2f%% does not beat pre-swap %.2f%%", cy.machine, cy.post, cy.pre)
		}
		cycles = append(cycles, cy)
	}
	return cycles, nil
}

// rolloutStatus reads model's rollout status from the server at url.
func rolloutStatus(c *http.Client, url, model string) (rollout.Status, error) {
	var st rollout.Status
	resp, err := c.Get(url + "/models/" + model + "/rollout")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("rollout status: %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// checkReads compares every successful read of model with the
// in-process prediction of the version that answered it.
func checkReads(ctx context.Context, rep *report, phase string, reg *registry.Registry, model string, rows [][]float64, reads []sample) error {
	want := map[int][]float64{}
	wrong := 0
	for i := range reads {
		rd := &reads[i]
		if !rd.ok() {
			continue
		}
		var out predictOut
		err := json.Unmarshal(rd.body, &out)
		w, ok := want[out.Version]
		if err == nil && !ok && out.Version > 0 {
			m, err := reg.Load(model, out.Version)
			if err != nil {
				return err
			}
			w = make([]float64, len(rows))
			if err := m.PredictBatchInto(ctx, rows, w); err != nil {
				return err
			}
			want[out.Version] = w
		}
		if err == nil && out.Model == model && out.Y != nil && w != nil && math.Float64bits(w[rd.key]) == math.Float64bits(*out.Y) {
			continue
		}
		wrong++
		if wrong > maxWrongNotes {
			rep.failed++
			continue
		}
		wantY := "no such version"
		if w != nil {
			wantY = fmt.Sprint(w[rd.key])
		}
		rep.wrong("%s: read %d answered %.200s; want %s", phase, rd.key, rd.body, wantY)
	}
	return nil
}

// adaptPhase is drift-adapt: one client streams /observe batches whose
// ground truth switches machine preset cycle by cycle, while a second
// sends closed-loop single-row reads of the same model.
type adaptPhase struct {
	f       *fleet
	in      *driftInputs
	c, rc   *http.Client
	readURL string
	st0     rollout.Status

	next       int // the next cycle's index into driftSchedule
	broken     bool
	rep        *report // wrong answers found while driving
	cycles     []cycle
	reads      []sample
	observeRTT durations // untraced /observe round trips

	// Traced slices only.
	tracedCycles                   []cycle
	observeHandler                 durations
	retrain, fit, publish, artLoad durations
	counters                       fleetCounters
}

func newAdaptPhase(cfg config, f *fleet) (*adaptPhase, error) {
	in, err := newDriftInputs(cfg.seed^0x64726966, driftModel)
	if err != nil {
		return nil, err
	}
	p := &adaptPhase{f: f, in: in, c: newClient(1), rc: newClient(1), readURL: f.gwURL + "/predict", rep: newReport()}
	if p.st0, err = rolloutStatus(p.c, f.gwURL, driftModel); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *adaptPhase) slice(ctx context.Context, traced bool, d time.Duration) error {
	if p.broken {
		return nil
	}
	var before scrapes
	var poller *tracePoller
	start := time.Now()
	if traced {
		var err error
		if before, err = scrapeFleet(p.f); err != nil {
			return err
		}
		urls := make([]string, len(p.f.reps))
		for i, r := range p.f.reps {
			urls[i] = r.url
			r.timer.take()
			r.timer.on.Store(true)
		}
		// Reads and observes together run near 1000 traces a second
		// through a 256-trace ring.
		poller = startTracePoller(urls, 50*time.Millisecond)
	}
	rd := startReader(p.rc, p.readURL, p.in.bodies)
	cycles, err := runCycles(ctx, p.c, p.f, p.in, p.next, start.Add(d), rd, p.rep)
	p.reads = append(p.reads, rd.finish()...)
	p.next += len(cycles)
	p.cycles = append(p.cycles, cycles...)
	p.broken = !p.rep.correct()
	if !traced {
		for _, cy := range cycles {
			p.observeRTT = append(p.observeRTT, cy.observeRTT...)
		}
		return err
	}
	traces := poller.finish()
	for _, r := range p.f.reps {
		r.timer.on.Store(false)
		for _, h := range r.timer.take() {
			if h.path == "/observe" {
				p.observeHandler = append(p.observeHandler, h.dur)
			}
		}
	}
	if err != nil {
		return err
	}
	after, err := scrapeFleet(p.f)
	if err != nil {
		return err
	}
	p.counters.add(before, after)
	p.tracedCycles = append(p.tracedCycles, cycles...)
	for _, t := range traces {
		if t.Start.Before(start) {
			continue
		}
		if t.Name == "retrain" {
			p.retrain = append(p.retrain, time.Duration(t.DurNs))
			if d, ok := spanDur(t, "fit"); ok {
				p.fit = append(p.fit, d)
			}
			if d, ok := spanDur(t, "publish"); ok {
				p.publish = append(p.publish, d)
			}
		}
		if d, ok := spanDur(t, "artifact_load"); ok {
			p.artLoad = append(p.artLoad, d)
		}
	}
	return nil
}

func (p *adaptPhase) finish(ctx context.Context, rep *report) error {
	rep.attempted += p.rep.attempted
	rep.failed += p.rep.failed
	rep.errs = append(rep.errs, p.rep.errs...)
	var adapt []time.Duration
	for _, cy := range p.cycles {
		if !cy.adaptEnd.IsZero() {
			adapt = append(adapt, cy.adaptEnd.Sub(cy.start))
		}
	}
	st1, err := rolloutStatus(p.c, p.f.gwURL, driftModel)
	if err != nil {
		return err
	}
	promotions := int(st1.Promotions - p.st0.Promotions)
	if promotions < len(p.cycles) {
		rep.wrong("drift-adapt: %d cycles but %d promotions", len(p.cycles), promotions)
	}
	readLat := okLatencies(p.reads)
	rep.endToEnd("adapt_s", "s", median(secondsOf(adapt)))
	// One closed-loop client streams driftBatch-row batches: its ingest
	// rate is a batch per round trip. The median round trip keeps the
	// rate steady against retrains that happen to overlap a batch.
	observeRate := driftBatch / p.observeRTT.quantile(0.5).Seconds()
	rep.endToEnd("observe_rows_per_s", "rows/s", observeRate)
	rep.note("drift-adapt: %d cycles (%d promotions, %d rollbacks), adapt median %.3f s, p90 %.3f s; %.0f observed rows/s; %d reads, p50 %.3f ms",
		len(p.cycles), promotions, st1.Rollbacks-p.st0.Rollbacks, median(secondsOf(adapt)), durations(adapt).quantile(0.9).Seconds(),
		observeRate, len(p.reads), ms(readLat.quantile(0.5)))
	tallyInto(rep, "adapt.", tally(p.reads))
	rep.layer("adapt.rollout.promotions", "count", float64(promotions))
	rep.layer("adapt.rollout.rollbacks", "count", float64(st1.Rollbacks-p.st0.Rollbacks))
	rep.layer("adapt.bench.read_p50_ms", "ms", ms(readLat.quantile(0.5)))
	var shadow, canary []float64
	for _, cy := range p.tracedCycles {
		if !cy.shadowAt.IsZero() && !cy.canaryAt.IsZero() {
			shadow = append(shadow, cy.canaryAt.Sub(cy.shadowAt).Seconds())
		}
		if !cy.canaryAt.IsZero() && !cy.promotedAt.IsZero() {
			canary = append(canary, cy.promotedAt.Sub(cy.canaryAt).Seconds())
		}
	}
	rep.layer("adapt.online.observe_us", "us", us(p.observeHandler.quantile(0.5)))
	rep.layer("adapt.online.retrain_ms", "ms", ms(p.retrain.quantile(0.5)))
	rep.layer("adapt.hybrid.fit_ms", "ms", ms(p.fit.quantile(0.5)))
	rep.layer("adapt.registry.publish_ms", "ms", ms(p.publish.quantile(0.5)))
	rep.layer("adapt.registry.load_ms", "ms", ms(p.artLoad.quantile(0.5)))
	rep.layer("adapt.rollout.shadow_s", "s", median(shadow))
	rep.layer("adapt.rollout.canary_s", "s", median(canary))
	frac := 0.0
	if p.counters.retrainsStarted > 0 {
		frac = p.counters.retrainsPublished / p.counters.retrainsStarted
	}
	rep.layer("adapt.online.retrains_published_frac", "ratio", frac)
	return checkReads(ctx, rep, "drift-adapt", p.f.reg, driftModel, p.in.reads, p.reads)
}
