package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"lam/internal/registry"
)

// predictPhase is a /predict traffic shape through the gateway: the
// pooled requests with their expected answers, the load generator, and
// what its slices measured.
type predictPhase struct {
	name   string
	prefix string // of its layer metrics
	f      *fleet
	pool   []pooled
	c      *http.Client
	url    string
	// load drives the fleet for d and returns every request sent.
	load func(ctx context.Context, traced bool, d time.Duration) []sample

	untraced []sample
	rowRates []float64 // rows answered per second, one per untraced slice
	p99s     durations // latency p99, one per untraced slice
	traced   []sample
	path     pathSplit
	counters fleetCounters
}

func (p *predictPhase) body(i int) ([]byte, int) {
	k := i % len(p.pool)
	return p.pool[k].body, k
}

func (p *predictPhase) slice(ctx context.Context, traced bool, d time.Duration) error {
	if !traced {
		start := time.Now()
		ss := p.load(ctx, false, d)
		rows := 0
		for i := range ss {
			if ss[i].ok() {
				rows += len(p.pool[ss[i].key].rows)
			}
		}
		p.rowRates = append(p.rowRates, float64(rows)/lastDone(ss).Sub(start).Seconds())
		p.untraced = append(p.untraced, ss...)
		return nil
	}
	// The span rings hold the last 256 traces; poll often enough that
	// none scroll out unseen at this phase's request rate.
	ss, split, before, after, err := tracedPredict(p.f, 100*time.Millisecond, func() []sample {
		return p.load(ctx, true, d)
	})
	if err != nil {
		return err
	}
	p.traced = append(p.traced, ss...)
	p.path.add(split)
	p.counters.add(before, after)
	return nil
}

// warm drives the phase briefly and discards what it measured.
func (p *predictPhase) warm(ctx context.Context) {
	p.load(ctx, false, warmup)
}

// checkAndCount checks every answer and adds the requests to the run's
// operation counts.
func (p *predictPhase) checkAndCount(rep *report) counts {
	checkAnswers(rep, p.name, p.untraced, p.pool)
	checkAnswers(rep, p.name+" traced", p.traced, p.pool)
	cnt := tally(p.untraced)
	tallyInto(rep, p.prefix, cnt)
	rep.count(p.name+" traced", tally(p.traced))
	return cnt
}

func lastDone(ss []sample) time.Time {
	var t time.Time
	for i := range ss {
		if ss[i].done.After(t) {
			t = ss[i].done
		}
	}
	return t
}

// batchPhase is batch-256: a closed loop of nproc clients sending
// 256-row batches of the batch models through the gateway.
type batchPhase struct {
	predictPhase
	perRow []float64 // in-process PredictBatchInto ns per row
	loads  []float64 // in-process registry load ms
}

func newBatchPhase(ctx context.Context, cfg config, f *fleet, tr *trained) (*batchPhase, error) {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x62617463))
	p := &batchPhase{predictPhase: predictPhase{name: "batch-256", prefix: "batch.", f: f, c: newClient(runtime.NumCPU()), url: f.gwURL + "/predict"}}
	p.pool = make([]pooled, 32)
	for i := range p.pool {
		q := &p.pool[i]
		q.model = f.batchSet[i%len(f.batchSet)]
		q.rows = make([][]float64, batchRows)
		for j := range q.rows {
			q.rows[j] = tr.ds.X[rng.Intn(tr.ds.Len())]
		}
		var err error
		if q.body, err = json.Marshal(map[string]any{"model": q.model, "batch": q.rows}); err != nil {
			return nil, err
		}
	}
	// The in-process reference: the same artifacts loaded by the
	// registry, scored by PredictBatchInto. Timed alone, the same calls
	// give the traversal cost per row and the load cost.
	models := map[string]*registry.Model{}
	for _, name := range f.batchSet {
		t0 := time.Now()
		m, err := f.reg.Load(name, 0)
		if err != nil {
			return nil, err
		}
		p.loads = append(p.loads, ms(time.Since(t0)))
		models[name] = m
	}
	for i := range p.pool {
		p.pool[i].want = make([]float64, batchRows)
		if err := models[p.pool[i].model].PredictBatchInto(ctx, p.pool[i].rows, p.pool[i].want); err != nil {
			return nil, err
		}
	}
	out := make([]float64, batchRows)
	for pass := 0; pass < 3; pass++ {
		for i := range p.pool {
			t0 := time.Now()
			if err := models[p.pool[i].model].PredictBatchInto(ctx, p.pool[i].rows, out); err != nil {
				return nil, err
			}
			p.perRow = append(p.perRow, float64(time.Since(t0).Nanoseconds())/batchRows)
		}
	}
	p.load = func(ctx context.Context, traced bool, d time.Duration) []sample {
		return closedLoop(ctx, p.c, p.url, runtime.NumCPU(), time.Now().Add(d), traced, p.body)
	}
	p.warm(ctx)
	return p, nil
}

func (p *batchPhase) finish(ctx context.Context, rep *report) error {
	cnt := p.checkAndCount(rep)
	lat := okLatencies(p.untraced)
	rep.endToEnd("predict_rows_per_s", "rows/s", median(p.rowRates))
	rep.endToEnd("batch_p50_ms", "ms", ms(lat.quantile(0.5)))
	rep.endToEnd("batch_p90_ms", "ms", ms(lat.quantile(0.9)))
	rep.layer("batch.bench.p99_ms", "ms", ms(lat.quantile(0.99)))
	rep.note("batch-256: %d requests (%d ok), median %.0f rows/s over %d slices, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms over %d samples",
		cnt.sent, cnt.ok, median(p.rowRates), len(p.rowRates), ms(lat.quantile(0.5)), ms(lat.quantile(0.9)), ms(lat.quantile(0.99)), len(lat))
	rep.layer("batch.ml.traverse_ns_per_row", "ns", median(p.perRow))
	rep.layer("batch.registry.load_ms", "ms", median(p.loads))
	if len(p.traced) == 0 {
		return nil
	}
	pathLayers(rep, "batch.", p.path, p.counters, lat.quantile(0.5), okLatencies(p.traced).quantile(0.5))
	rep.layer("telemetry.scrape_ms", "ms", ms(p.counters.scrapeTook.quantile(0.5)))
	// ROADMAP's re-anchor split one 256-row round trip of 914 us into
	// traversal 482 us (53%), JSON decode + encode 244 us (27%) and the
	// rest (HTTP, gateway) 188 us (21%).
	rtt := float64(lat.quantile(0.5))
	trav := float64(p.path.predict.quantile(0.5)) / rtt
	wire := float64(p.path.wire.quantile(0.5)) / rtt
	matches := math.Abs(trav-0.53) <= 0.10 && math.Abs(wire-0.27) <= 0.10
	rep.note("batch-256 vs the re-anchor split (914 us = 53%% traversal + 27%% decode/encode + 21%% rest): here %.0f us = %.0f%% traversal + %.0f%% wire + %.0f%% rest; matches within 10 points: %v",
		rtt/1e3, 100*trav, 100*wire, 100*(1-trav-wire), matches)
	return nil
}

// singlePhase is single-open: single-row requests of the hybrid model
// arriving on a seeded Poisson schedule at openRate.
type singlePhase struct {
	predictPhase
	rng *rand.Rand
}

func newSinglePhase(ctx context.Context, cfg config, f *fleet, tr *trained) (*singlePhase, error) {
	p := &singlePhase{
		predictPhase: predictPhase{name: "single-open", prefix: "single.", f: f, c: newClient(runtime.NumCPU()), url: f.gwURL + "/predict"},
		rng:          rand.New(rand.NewSource(cfg.seed ^ 0x73696e67)),
	}
	m, err := f.reg.Load(singleModel, 0)
	if err != nil {
		return nil, err
	}
	p.pool = make([]pooled, 2048)
	for i := range p.pool {
		q := &p.pool[i]
		q.model = singleModel
		q.rows = [][]float64{tr.ds.X[p.rng.Intn(tr.ds.Len())]}
		y, err := m.Predict(ctx, q.rows[0])
		if err != nil {
			return nil, err
		}
		q.want = []float64{y}
		if q.body, err = json.Marshal(map[string]any{"model": q.model, "x": q.rows[0]}); err != nil {
			return nil, err
		}
	}
	p.load = func(ctx context.Context, traced bool, d time.Duration) []sample {
		return openLoop(ctx, p.c, p.url, runtime.NumCPU(), time.Now(), p.schedule(d), traced, p.body)
	}
	p.warm(ctx)
	return p, nil
}

// schedule draws the next d of Poisson arrivals at openRate.
func (p *singlePhase) schedule(d time.Duration) []time.Duration {
	var offs []time.Duration
	t := 0.0
	for {
		t += p.rng.ExpFloat64() / openRate
		if t >= d.Seconds() {
			return offs
		}
		offs = append(offs, time.Duration(t*float64(time.Second)))
	}
}

func (p *singlePhase) finish(ctx context.Context, rep *report) error {
	cnt := p.checkAndCount(rep)
	lat := okLatencies(p.untraced)
	within := 0
	var late durations
	for i := range p.untraced {
		s := &p.untraced[i]
		late = append(late, s.sent.Sub(s.due))
		if s.ok() && s.latency() <= sloLimit {
			within++
		}
	}
	rep.endToEnd("predict_p50_ms", "ms", ms(lat.quantile(0.5)))
	rep.layer("single.bench.p90_ms", "ms", ms(lat.quantile(0.9)))
	rep.layer("single.bench.p99_ms", "ms", ms(lat.quantile(0.99)))
	rep.endToEnd("slo_ok_frac", "ratio", float64(within)/float64(max(cnt.sent, 1)))
	rep.layer("single.bench.late_p99_ms", "ms", ms(late.quantile(0.99)))
	rep.note("single-open: %d arrivals at %.0f/s (%d ok, %d shed, %d failed), p50 %.3f ms, p90 %.3f ms, p99 %.3f ms from due over %d samples, %.4f within %v, generator late p99 %.3f ms",
		cnt.sent, openRate, cnt.ok, cnt.shed, cnt.failed, ms(lat.quantile(0.5)), ms(lat.quantile(0.9)), ms(lat.quantile(0.99)), len(lat),
		float64(within)/float64(max(cnt.sent, 1)), sloLimit, ms(late.quantile(0.99)))
	if len(p.traced) == 0 {
		return nil
	}
	// Reconcile the open loop's service time (sent to done): latency
	// from due also holds the generator's wait for a free connection.
	svc := func(ss []sample) durations {
		var d durations
		for i := range ss {
			if ss[i].ok() {
				d = append(d, ss[i].done.Sub(ss[i].sent))
			}
		}
		return d
	}
	pathLayers(rep, "single.", p.path, p.counters, svc(p.untraced).quantile(0.5), svc(p.traced).quantile(0.5))
	rep.layer("single.serve.coalesce_wait_p50_us", "us", us(p.path.coalesce.quantile(0.5)))
	perFlush := 0.0
	if p.counters.flushes > 0 {
		perFlush = p.counters.flushRows / p.counters.flushes
	}
	rep.layer("single.serve.rows_per_flush", "rows", perFlush)
	return nil
}

// pooled is one pre-encoded request with the answer it must get.
type pooled struct {
	model string
	rows  [][]float64
	body  []byte
	want  []float64
}

type predictOut struct {
	Model   string    `json:"model"`
	Version int       `json:"version"`
	Y       *float64  `json:"y"`
	YBatch  []float64 `json:"y_batch"`
}

// checkAnswers decodes every successful response and compares it, bit
// for bit, with the in-process prediction of the same model version on
// the same rows. Wrong answers fail the run. The batch and single models
// are never retrained, so every answer must come from version 1.
func checkAnswers(rep *report, phase string, ss []sample, pool []pooled) {
	const wantVersion = 1
	wrong := 0
	for i := range ss {
		s := &ss[i]
		if !s.ok() {
			continue
		}
		p := &pool[s.key]
		var out predictOut
		err := json.Unmarshal(s.body, &out)
		var got []float64
		switch {
		case err != nil:
		case out.Y != nil:
			got = []float64{*out.Y}
		default:
			got = out.YBatch
		}
		bad := err != nil || out.Model != p.model || out.Version != wantVersion || len(got) != len(p.want)
		for j := 0; !bad && j < len(got); j++ {
			bad = math.Float64bits(got[j]) != math.Float64bits(p.want[j])
		}
		if bad {
			wrong++
			if wrong <= maxWrongNotes {
				rep.wrong("%s: request %d to %s answered %.200s; want version %d, %v", phase, s.key, p.model, s.body, wantVersion, p.want[:min(len(p.want), 3)])
			} else {
				rep.failed++
			}
		}
	}
}

// tracedPredict runs load with every layer's timing on and returns the
// joined per-request split plus the fleet's counter changes.
func tracedPredict(f *fleet, poll time.Duration, load func() []sample) ([]sample, pathSplit, scrapes, scrapes, error) {
	before, err := scrapeFleet(f)
	if err != nil {
		return nil, pathSplit{}, before, before, err
	}
	urls := make([]string, len(f.reps))
	for i, r := range f.reps {
		urls[i] = r.url
		r.timer.take()
		r.timer.on.Store(true)
	}
	f.gwTimer.take()
	f.gwTimer.on.Store(true)
	poller := startTracePoller(urls, poll)
	ss := load()
	traces := poller.finish()
	f.gwTimer.on.Store(false)
	var repRecs []handlerRec
	for _, r := range f.reps {
		r.timer.on.Store(false)
		repRecs = append(repRecs, r.timer.take()...)
	}
	after, err := scrapeFleet(f)
	if err != nil {
		return nil, pathSplit{}, before, before, err
	}
	return ss, joinPath(ss, f.gwTimer.take(), repRecs, traces), before, after, nil
}

// pathLayers reports the serving-path layer metrics of a traced phase
// and reconciles their self times with the untraced round trip.
func pathLayers(rep *report, prefix string, p pathSplit, fc fleetCounters, untracedRTT, tracedRTT time.Duration) {
	rep.layer(prefix+"serve.handler_p50_us", "us", us(p.handler.quantile(0.5)))
	rep.layer(prefix+"serve.handler_p99_us", "us", us(p.handler.quantile(0.99)))
	rep.layer(prefix+"serve.wire_p50_us", "us", us(p.wire.quantile(0.5)))
	rep.layer(prefix+"serve.predict_p50_us", "us", us(p.predict.quantile(0.5)))
	rep.layer(prefix+"serve.admission_wait_p99_us", "us", us(p.admission.quantile(0.99)))
	rep.layer(prefix+"serve.shed", "count", fc.shed)
	rep.layer(prefix+"serve.queue_peak", "count", fc.queuePeak)
	rep.layer(prefix+"gateway.self_p50_us", "us", us(p.gwSelf.quantile(0.5)))
	rep.layer(prefix+"gateway.retries", "count", fc.retries)
	rep.layer(prefix+"gateway.spills", "count", fc.spills)
	rep.layer(prefix+"bench.http_p50_us", "us", us(p.http.quantile(0.5)))
	rep.layer(prefix+"bench.joined", "count", float64(p.joined))
	sum := p.selfSum()
	residual := untracedRTT - sum
	frac, overhead := 0.0, 0.0
	if untracedRTT > 0 {
		frac = float64(residual) / float64(untracedRTT)
		overhead = float64(tracedRTT) / float64(untracedRTT)
	}
	rep.layer(prefix+"telemetry.trace_overhead_frac", "ratio", overhead)
	rep.layer(prefix+"reconcile.residual_us", "us", us(residual))
	rep.layer(prefix+"reconcile.residual_frac", "ratio", frac)
	verdict := "within"
	if math.Abs(frac) > reconcileTolerance {
		verdict = "OUTSIDE"
	}
	rep.note("%sreconcile: untraced round-trip p50 %.0f us; layer self-time p50s: http %.0f + gateway %.0f + wire %.0f + admission %.0f + predict %.0f = %.0f us; residual %.0f us (%.1f%%), %s the %.0f%% tolerance; %d requests joined",
		prefix, us(untracedRTT), us(p.http.quantile(0.5)), us(p.gwSelf.quantile(0.5)), us(p.wire.quantile(0.5)),
		us(p.admission.quantile(0.5)), us(p.predict.quantile(0.5)), us(sum), us(residual), 100*frac, verdict, 100*reconcileTolerance, p.joined)
}
